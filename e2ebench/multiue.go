package main

import (
	"fmt"
	"math"
	"time"

	"github.com/midband5g/midband/internal/core"
	"github.com/midband5g/midband/internal/fleet"
	"github.com/midband5g/midband/internal/gnb"
	"github.com/midband5g/midband/internal/operators"
)

// multiUEContention is core.RunMultiUE on the mid-band operators'
// primary carriers: 64 UEs per cell under the PF scheduler.
type multiUEContention struct {
	ops      []operators.Operator
	ues      int
	policy   gnb.SchedulerPolicy
	duration time.Duration
}

func newMultiUEContention() *multiUEContention {
	return &multiUEContention{
		ops:      operators.MidBand(),
		ues:      64,
		policy:   gnb.SchedulerProportionalFair,
		duration: 2 * time.Second,
	}
}

func (m *multiUEContention) config(e *env) core.MultiUEConfig {
	return core.MultiUEConfig{Operators: m.ops, UEsPerCell: m.ues, Policy: m.policy,
		Duration: m.duration, Seed: e.seed, Workers: e.workers}
}

func (m *multiUEContention) run(e *env) *outcome {
	out := newOutcome()
	out.attempted = len(m.ops)
	reps, err := core.RunMultiUE(m.config(e))
	if err != nil {
		out.failAll("multi-UE: %v", err)
		return out
	}
	m.check(out, reps)
	return out
}

// check holds for any valid model: Jain's index lies in (1/N, 1] and
// the per-UE shares of a cell sum to one.
func (m *multiUEContention) check(out *outcome, reps []core.MultiUEReport) {
	if len(reps) != len(m.ops) {
		out.failAll("want %d cells, got %d", len(m.ops), len(reps))
	}
	d := newDigester()
	for _, r := range reps {
		n := float64(r.UEs)
		var sum float64
		for _, u := range r.PerUE {
			sum += u.Share
		}
		if r.UEs != m.ues || len(r.PerUE) != m.ues || !(r.CellMbps > 0) ||
			!(r.JainIndex > 1/n && r.JainIndex <= 1+1e-12) || math.Abs(sum-1) > 1e-9 {
			out.fail(1, "%s: UEs=%d Mbps=%g Jain=%g shares sum to %g", r.Operator, r.UEs, r.CellMbps, r.JainIndex, sum)
		}
		d.s(r.Operator, r.Policy)
		d.i(int64(r.UEs))
		d.f(r.CellMbps, r.JainIndex, r.LoadEMA)
		for _, u := range r.PerUE {
			d.i(int64(u.UE), u.ScheduledSlots)
			d.f(u.Mbps, u.Share)
		}
	}
	out.digest = d.sum()
}

// replay runs RunMultiUE's per-cell jobs through public calls, with the
// same seeds, cell construction and report arithmetic.
func (m *multiUEContention) replay(e *env, tr *tracer) *outcome {
	out := newOutcome()
	keys := make([]string, len(m.ops))
	for i, op := range m.ops {
		keys[i] = op.Acronym
	}
	type cellOut struct {
		rep         core.MultiUEReport
		fast, lanes int
		cfg         gnb.CellConfig
	}
	res, fm := runPhase(tr, out, e.workers, keys, func(j *jobTrace, root int32, i int) (cellOut, error) {
		var co cellOut
		err := j.call("core.multiue_job", root, func(p int32) error {
			var err error
			co.rep, co.fast, co.lanes, co.cfg, err = m.replayCell(j, p, e.seed, m.ops[i])
			return err
		})
		return co, err
	})
	out.counts["fleet_retries"] += float64(fm.Retries.Load())
	reps := make([]core.MultiUEReport, 0, len(res))
	for _, r := range res {
		if r.Err != nil {
			out.fail(1, "%s: %v", r.Key, r.Err)
			continue
		}
		reps = append(reps, r.Value.rep)
		out.counts["fast_lanes"] += float64(r.Value.fast)
		out.counts["lanes"] += float64(r.Value.lanes)
		out.cells = append(out.cells, r.Value.cfg)
	}
	m.check(out, reps)
	return out
}

func (m *multiUEContention) replayCell(j *jobTrace, p int32, base int64, op operators.Operator) (core.MultiUEReport, int, int, gnb.CellConfig, error) {
	var rep core.MultiUEReport
	n := m.ues
	seed := fleet.SplitSeed(base, "core/multiue/"+op.Acronym, 0)
	cc, err := op.CarrierConfig(0, operators.Stationary(seed))
	if err != nil {
		return rep, 0, 0, gnb.CellConfig{}, fmt.Errorf("%s: %w", op.Acronym, err)
	}
	cfg := gnb.CellConfig{Carrier: cc, UEs: core.UEPositions(seed, n), Policy: m.policy,
		Model: gnb.CellModelContention, Seed: seed}
	var scalar *gnb.Cell
	if err := j.call("gnb.NewCell", p, func(int32) error {
		scalar, err = gnb.NewCell(cfg)
		return err
	}); err != nil {
		return rep, 0, 0, gnb.CellConfig{}, err
	}
	var cell *gnb.CellBatch
	if err := j.call("gnb.NewCellBatch", p, func(int32) error {
		cell, err = gnb.NewCellBatch(scalar)
		return err
	}); err != nil {
		return rep, 0, 0, gnb.CellConfig{}, err
	}
	steps := int(m.duration / cell.SlotDuration())
	bits := make([]float64, n)
	slots := make([]int64, n)
	var stepTime time.Duration
	for s := 0; s < steps; s++ {
		t0 := time.Now()
		r := cell.Step()
		stepTime += time.Since(t0)
		for _, a := range r.Allocs {
			bits[a.UE] += float64(a.Alloc.DeliveredBits)
			slots[a.UE]++
		}
	}
	j.agg("gnb.CellBatch.Step", p, stepTime, int64(steps))
	secs := float64(steps) * cell.SlotDuration().Seconds()
	rep = core.MultiUEReport{Operator: op.Acronym, Policy: m.policy.String(), UEs: n, LoadEMA: cell.LoadEMA()}
	var total, sumsq float64
	for _, b := range bits {
		total += b
		sumsq += b * b
	}
	rep.CellMbps = total / secs / 1e6
	if sumsq > 0 {
		rep.JainIndex = total * total / (float64(n) * sumsq)
	} else {
		rep.JainIndex = 1
	}
	for i := 0; i < n; i++ {
		share := 0.0
		if total > 0 {
			share = bits[i] / total
		}
		rep.PerUE = append(rep.PerUE, core.UEShare{UE: i, Mbps: bits[i] / secs / 1e6, Share: share, ScheduledSlots: slots[i]})
	}
	return rep, cell.FastLanes(), cell.NumUEs(), cfg, nil
}
