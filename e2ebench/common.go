package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"sort"
	"sync"
	"time"

	"github.com/midband5g/midband/internal/fleet"
	"github.com/midband5g/midband/internal/gnb"
	"github.com/midband5g/midband/internal/net5g"
	"github.com/midband5g/midband/internal/video"
	"github.com/midband5g/midband/internal/xcal"
)

// env is what one workload run needs besides its own inputs.
type env struct {
	seed    int64
	workers int    // fleet pool size (the host's nproc)
	dir     string // scratch directory inside the checkout
	iter    int    // iteration number, to keep scratch paths distinct
}

// outcome is one execution of a workload: its output digest, the
// operations it attempted and how many failed (an error or a failed
// output check), and the counts the per-layer metrics need.
type outcome struct {
	digest    string
	attempted int
	failed    int
	problems  []string
	counts    map[string]float64
	// figTimes holds each figure call's wall time (mobility-mmwave).
	figTimes map[string]time.Duration
	// Replay only: the link steps spent per configuration and the cell
	// configurations (the ladder re-steps both), the pool capacity
	// (workers × makespan) summed over fleet phases, and the spans.
	uses     []linkUse
	cells    []gnb.CellConfig
	capacity time.Duration
	spans    []span
}

func newOutcome() *outcome {
	return &outcome{counts: map[string]float64{}, figTimes: map[string]time.Duration{}}
}

// fail records a failed output check against n operations; no more
// operations fail than were attempted.
func (o *outcome) fail(n int, format string, args ...any) {
	o.failed = min(o.failed+n, o.attempted)
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// failAll marks every attempted operation failed, for a check that
// covers the whole output.
func (o *outcome) failAll(format string, args ...any) {
	o.fail(o.attempted-o.failed, format, args...)
}

// linkUse is how many link steps one replayed call spent on one link
// configuration; the rung ladder re-steps each configuration to split
// that call's time among link, carrier and channel.
type linkUse struct {
	key   linkKey
	kind  string // "iperf" (iperf.Run inside a session call), "video" (video.Play) or "step"
	steps int64
}

// linkKey is a link configuration as a replayed call drove it. Name
// identifies it: uses with one name share one ladder measurement.
type linkKey struct {
	name    string
	cfg     net5g.LinkConfig
	demand  net5g.Demand
	rsrq    bool // per-slot RSRQ conversion on
	records bool // iperf keeps KPI records and writes a trace
	// ladder, when non-nil, adds a video rung: Play on this ladder.
	ladder video.Ladder
}

// runPhase runs jobs over the fleet, recording each under a root span
// when tr is non-nil, and adds workers × makespan to out.capacity.
func runPhase[T any](tr *tracer, out *outcome, workers int, keys []string,
	fn func(j *jobTrace, root int32, i int) (T, error)) ([]fleet.Result[T], *fleet.Metrics) {
	var m fleet.Metrics
	var mu sync.Mutex
	jobs := make([]fleet.Job[T], len(keys))
	for i := range keys {
		i := i
		jobs[i] = fleet.Job[T]{Key: keys[i], Run: func(context.Context) (T, error) {
			if tr == nil {
				return fn(nil, -1, i)
			}
			j := tr.job()
			v, err := fn(j, 0, i)
			j.done()
			mu.Lock()
			out.uses = append(out.uses, j.uses...)
			mu.Unlock()
			return v, err
		}}
	}
	t0 := time.Now()
	res, _ := fleet.Run(context.Background(), jobs, fleet.Options{Workers: workers, OnError: fleet.CollectAll, Metrics: &m})
	w := min(fleet.EffectiveWorkers(workers), len(keys))
	out.capacity += time.Duration(w) * time.Since(t0)
	out.attempted += len(keys)
	return res, &m
}

// digester hashes outputs bit-exactly: floats by their IEEE bits.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) f(xs ...float64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		d.h.Write(b[:])
	}
}

func (d *digester) i(xs ...int64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		d.h.Write(b[:])
	}
}

func (d *digester) s(xs ...string) {
	for _, x := range xs {
		d.i(int64(len(x)))
		d.h.Write([]byte(x))
	}
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianNs(xs []int64) float64 {
	f := make([]float64, len(xs))
	for i, x := range xs {
		f[i] = float64(x)
	}
	return median(f)
}

// timedWriter wraps the trace writer a session writes through, summing
// the time spent in its calls. delay, when non-zero, is spent inside
// every timed call; only tests set it, to check attribution.
type timedWriter struct {
	w     xcal.TraceWriter
	total time.Duration
	calls int64
	kpis  int64
	delay time.Duration
}

func (t *timedWriter) time(fn func() error) error {
	t0 := time.Now()
	err := fn()
	if t.delay > 0 {
		spin(t.delay)
	}
	t.total += time.Since(t0)
	t.calls++
	return err
}

func (t *timedWriter) WriteKPI(k *xcal.SlotKPI) error {
	t.kpis++
	return t.time(func() error { return t.w.WriteKPI(k) })
}
func (t *timedWriter) WriteMIB(m *xcal.MIB) error {
	return t.time(func() error { return t.w.WriteMIB(m) })
}
func (t *timedWriter) WriteSIB1(s *xcal.SIB1) error {
	return t.time(func() error { return t.w.WriteSIB1(s) })
}
func (t *timedWriter) WriteDCI(d *xcal.DCI) error {
	return t.time(func() error { return t.w.WriteDCI(d) })
}
func (t *timedWriter) WriteEvent(e xcal.Event) error {
	return t.time(func() error { return t.w.WriteEvent(e) })
}
func (t *timedWriter) Flush() error { return t.time(t.w.Flush) }
func (t *timedWriter) Close() error { return t.time(t.w.Close) }

// spin busy-waits for d, so a planted delay is CPU time like real work.
func spin(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
	}
}

// nopWriter is a trace sink that keeps nothing; the iperf rung uses it
// so the rung pays for record conversion but not for encoding.
type nopWriter struct{}

func (nopWriter) WriteKPI(*xcal.SlotKPI) error { return nil }
func (nopWriter) WriteMIB(*xcal.MIB) error     { return nil }
func (nopWriter) WriteSIB1(*xcal.SIB1) error   { return nil }
func (nopWriter) WriteDCI(*xcal.DCI) error     { return nil }
func (nopWriter) WriteEvent(xcal.Event) error  { return nil }
func (nopWriter) Flush() error                 { return nil }
func (nopWriter) Close() error                 { return nil }
