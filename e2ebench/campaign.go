package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/midband5g/midband/internal/analysis"
	"github.com/midband5g/midband/internal/core"
	"github.com/midband5g/midband/internal/fleet"
	"github.com/midband5g/midband/internal/iperf"
	"github.com/midband5g/midband/internal/net5g"
	"github.com/midband5g/midband/internal/operators"
	"github.com/midband5g/midband/internal/xcal"
	"github.com/midband5g/midband/internal/xcol"
)

// campaignTraces is core.RunCampaign over the mid-band registry with
// xcol traces, followed by a fleet phase that reads every trace back
// with the projected scanner and computes its Fig. 12 V(t) curve.
type campaignTraces struct {
	ops      []operators.Operator
	duration time.Duration
	sessions int
	probes   int
	// curveMaxK is Fig. 12's largest dyadic scale (2^12 × 0.5 ms ≈ 2 s).
	curveMaxK int
	// writeDelay is spent inside every trace writer call of a replay;
	// only tests set it, to check where the time is attributed.
	writeDelay time.Duration
}

func newCampaignTraces() *campaignTraces {
	return &campaignTraces{
		ops:       operators.MidBand(),
		duration:  20 * time.Second,
		sessions:  3,
		probes:    2000,
		curveMaxK: 12,
	}
}

// traceCheck is what reading one trace back yields.
type traceCheck struct {
	op          string
	sha         string
	size        int64
	records     uint64 // records the scan returned
	indexed     uint64 // records the footer index declares
	steps       int    // link steps with at least one record
	wantSteps   int
	corrupt     int
	dlMbps      float64
	ulMbps      float64
	curve       []analysis.ScalePoint
	readbackErr error
}

func (c *campaignTraces) config(e *env, dir string) core.CampaignConfig {
	return core.CampaignConfig{
		Operators:           c.ops,
		SessionDuration:     c.duration,
		SessionsPerOperator: c.sessions,
		LatencyProbes:       c.probes,
		TraceDir:            dir,
		TraceFormat:         "xcol",
		Seed:                e.seed,
		Workers:             e.workers,
	}
}

func traceDir(e *env, tag string) (string, error) {
	dir := filepath.Join(e.dir, fmt.Sprintf("%s-%d", tag, e.iter))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

func (c *campaignTraces) run(e *env) *outcome {
	out := newOutcome()
	out.attempted = len(c.ops) * c.sessions
	dir, err := traceDir(e, "campaign")
	if err != nil {
		out.failAll("trace dir: %v", err)
		return out
	}
	defer os.RemoveAll(dir)
	var m fleet.Metrics
	cfg := c.config(e, dir)
	cfg.Metrics = &m
	stats, err := core.RunCampaign(cfg)
	if err != nil {
		out.failAll("campaign: %v", err)
		return out
	}
	checks := c.readBack(nil, out, e, stats)
	c.check(out, stats, checks, nil)
	if got := totalSize(checks); got != m.TraceBytes.Load() {
		out.failAll("trace bytes on disk %d, campaign counted %d", got, m.TraceBytes.Load())
	}
	return out
}

// readBack scans each session's trace over the fleet, one job per trace.
func (c *campaignTraces) readBack(tr *tracer, out *outcome, e *env, stats *core.CampaignStats) []traceCheck {
	keys := make([]string, len(stats.Sessions))
	for i, s := range stats.Sessions {
		keys[i] = "readback/" + s.Operator
	}
	res, _ := runPhase(tr, out, e.workers, keys, func(j *jobTrace, root int32, i int) (traceCheck, error) {
		s := stats.Sessions[i]
		tc := c.scanTrace(j, root, s.Operator, s.TracePath)
		return tc, tc.readbackErr
	})
	checks := make([]traceCheck, len(res))
	for i, r := range res {
		checks[i] = r.Value
		checks[i].op = stats.Sessions[i].Operator
		if r.Err != nil {
			out.fail(1, "%s: %v", r.Key, r.Err)
		}
	}
	return checks
}

// scanTrace reads one trace with the Goodput projection, rebuilds the
// per-step DL/UL goodput and the DL throughput process, and computes
// the process's V(t) curve. j is nil on untraced runs.
func (c *campaignTraces) scanTrace(j *jobTrace, parent int32, op, path string) traceCheck {
	tc := traceCheck{op: op}
	if path == "" {
		tc.readbackErr = fmt.Errorf("no trace written")
		return tc
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		tc.readbackErr = err
		return tc
	}
	h := sha256.Sum256(raw)
	tc.sha, tc.size = hex.EncodeToString(h[:]), int64(len(raw))

	// The scanner's calls, OpenFile and every Next, are timed for the
	// replay's xcol.Scanner.Next span.
	t0 := time.Now()
	s, f, err := xcol.OpenFile(path)
	scanTime, calls := time.Since(t0), int64(1)
	if err != nil {
		tc.readbackErr = err
		return tc
	}
	defer f.Close()
	tc.indexed = s.NumRecords()
	if s.IndexErr() != nil {
		tc.readbackErr = fmt.Errorf("footer index unusable: %v", s.IndexErr())
		return tc
	}
	s.SetProjection(xcol.GoodputColumns | 1<<xcol.ColTime)
	slot := s.Meta().SlotDuration
	if slot <= 0 {
		tc.readbackErr = fmt.Errorf("trace meta has no slot duration")
		return tc
	}
	steps := int(c.duration / slot)
	tc.wantSteps = steps
	dl := make([]float64, steps)
	rbs := make([]float64, steps)
	seen := make([]bool, steps)
	var dlBits, ulBits float64
	start := time.Duration(-1)
	for {
		t1 := time.Now()
		blk, err := s.Next()
		scanTime, calls = scanTime+time.Since(t1), calls+1
		if err == io.EOF {
			break
		}
		if err != nil {
			tc.readbackErr = err
			return tc
		}
		tc.records += uint64(blk.Count)
		for i := 0; i < blk.Count; i++ {
			if start < 0 {
				start = blk.Time[i]
			}
			step := int((blk.Time[i] - start) / slot)
			if step < 0 || step >= steps {
				tc.readbackErr = fmt.Errorf("record at %v outside the %d-step session", blk.Time[i], steps)
				return tc
			}
			seen[step] = true
			bits := float64(blk.DeliveredBits[i])
			switch {
			case xcal.Direction(blk.Dir[i]) == xcal.UL:
				ulBits += bits
			case xcal.RAT(blk.RAT[i]) == xcal.NR:
				dlBits += bits
				dl[step] += bits
				if blk.Carrier[i] == 0 {
					rbs[step] = float64(blk.RBs[i])
				}
			}
		}
	}
	tc.corrupt = len(s.Corrupt())
	for _, ok := range seen {
		if ok {
			tc.steps++
		}
	}
	secs := c.duration.Seconds()
	tc.dlMbps = dlBits / secs / 1e6
	tc.ulMbps = ulBits / secs / 1e6
	// The DL throughput process (iperf.Result.DLThroughputProcess):
	// goodput of the steps whose PCell carried DL data.
	scale := 1 / slot.Seconds() / 1e6
	proc := make([]float64, 0, steps)
	for i, b := range dl {
		if rbs[i] > 0 {
			proc = append(proc, b*scale)
		}
	}
	if j == nil {
		tc.curve = analysis.Curve(proc, slot, c.curveMaxK)
		return tc
	}
	j.agg("xcol.Scanner.Next", parent, scanTime, calls)
	_ = j.call("analysis.Curve", parent, func(int32) error {
		tc.curve = analysis.Curve(proc, slot, c.curveMaxK)
		return nil
	})
	return tc
}

func totalSize(checks []traceCheck) int64 {
	var n int64
	for _, t := range checks {
		n += t.size
	}
	return n
}

// check applies the output checks and digests the outputs. perSession,
// when non-nil (replays), holds each operator's session-0 DL/UL Mbps,
// which the trace must reproduce exactly; untraced runs only see the
// operator average over its sessions, which bounds session 0 from above.
func (c *campaignTraces) check(out *outcome, stats *core.CampaignStats, checks []traceCheck, perSession map[string][2]float64) {
	if len(stats.Sessions) != len(c.ops) || stats.Operators != 11 {
		out.failAll("want 11 operators, got %d reports (Operators=%d)", len(stats.Sessions), stats.Operators)
	}
	if len(stats.Countries) != 5 {
		out.failAll("want 5 countries, got %d", len(stats.Countries))
	}
	if stats.TraceFiles != len(c.ops) {
		out.failAll("want %d trace files, got %d", len(c.ops), stats.TraceFiles)
	}
	byOp := map[string]core.SessionReport{}
	for _, s := range stats.Sessions {
		byOp[s.Operator] = s
		if s.Sessions != c.sessions || !(s.DLMbps > 0) || !(s.ULMbps > 0) || s.LatencyClean <= 0 {
			out.fail(c.sessions, "%s: sessions=%d DL=%g UL=%g latency=%v", s.Operator, s.Sessions, s.DLMbps, s.ULMbps, s.LatencyClean)
		}
	}
	for _, t := range checks {
		if t.readbackErr != nil {
			continue // already counted by readBack
		}
		rep := byOp[t.op]
		switch {
		case t.corrupt != 0:
			out.fail(1, "%s: %d corrupt blocks", t.op, t.corrupt)
		case t.records != t.indexed || t.records == 0:
			out.fail(1, "%s: scanned %d records, index declares %d", t.op, t.records, t.indexed)
		case t.steps != t.wantSteps:
			out.fail(1, "%s: trace covers %d of %d steps", t.op, t.steps, t.wantSteps)
		case perSession != nil && (t.dlMbps != perSession[t.op][0] || t.ulMbps != perSession[t.op][1]):
			out.fail(1, "%s: trace gives DL %v UL %v Mbps, session reported %v", t.op, t.dlMbps, t.ulMbps, perSession[t.op])
		case !(t.dlMbps > 0) || t.dlMbps > float64(c.sessions)*rep.DLMbps*(1+1e-9) ||
			t.ulMbps > float64(c.sessions)*rep.ULMbps*(1+1e-9):
			out.fail(1, "%s: trace DL %g UL %g Mbps inconsistent with the %d-session means DL %g UL %g",
				t.op, t.dlMbps, t.ulMbps, c.sessions, rep.DLMbps, rep.ULMbps)
		}
	}
	out.digest = campaignDigest(stats, checks)
	for _, t := range checks {
		out.counts["trace_records"] += float64(t.records)
		out.counts["trace_bytes"] += float64(t.size)
	}
}

func campaignDigest(stats *core.CampaignStats, checks []traceCheck) string {
	d := newDigester()
	for _, s := range stats.Sessions {
		d.s(s.Operator, s.Country, s.City, filepath.Base(s.TracePath))
		d.f(s.DLMbps, s.ULMbps, s.NRULMbps, s.LTEULMbps, s.DataBytes)
		d.i(int64(s.LatencyClean), int64(s.LatencyRetx), int64(s.Sessions))
	}
	d.f(stats.Minutes, stats.DataTB)
	d.i(int64(stats.Operators), int64(stats.TraceFiles), int64(stats.BackoffSim), int64(len(stats.Failures)))
	for _, m := range []map[string]bool{stats.Countries, stats.Cities} {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		d.s(keys...)
	}
	for _, t := range checks {
		d.s(t.op, t.sha)
		d.i(int64(t.records))
		for _, p := range t.curve {
			d.i(int64(p.Scale), int64(p.Duration))
			d.f(p.V)
		}
	}
	return d.sum()
}

// sessionResult is what one replayed session job returns.
type sessionResult struct {
	dl, ul, nrUL, lteUL float64
	path                string
	clean, retx         time.Duration
	written             int64 // KPI records written (session 0)
}

// replay runs the campaign's job list through public calls — the same
// (operator, session) jobs, seeds and aggregation as core.RunCampaign —
// with a span around each call.
func (c *campaignTraces) replay(e *env, tr *tracer) *outcome {
	out := newOutcome()
	dir, err := traceDir(e, "replay")
	if err != nil {
		out.attempted = len(c.ops) * c.sessions
		out.failAll("trace dir: %v", err)
		return out
	}
	defer os.RemoveAll(dir)
	type job struct {
		op operators.Operator
		k  int
	}
	var jobs []job
	var keys []string
	for _, op := range c.ops {
		for k := 0; k < c.sessions; k++ {
			jobs = append(jobs, job{op, k})
			keys = append(keys, fmt.Sprintf("%s/%d", op.Acronym, k))
		}
	}
	res, m := runPhase(tr, out, e.workers, keys, func(j *jobTrace, root int32, i int) (sessionResult, error) {
		var r sessionResult
		err := j.call("core.session_job", root, func(p int32) error {
			var err error
			r, err = c.replaySession(j, p, dir, e.seed, jobs[i].op, jobs[i].k)
			return err
		})
		return r, err
	})
	out.counts["fleet_retries"] += float64(m.Retries.Load())
	out.counts["latency_probes"] = float64(c.probes)
	stats := &core.CampaignStats{Countries: map[string]bool{}, Cities: map[string]bool{}}
	perSession := map[string][2]float64{}
	for i, op := range c.ops {
		base := i * c.sessions
		var dl, ul, nrUL, lteUL float64
		nOK := 0
		rep := core.SessionReport{Operator: op.Acronym, Country: op.Country, City: op.City}
		for k := 0; k < c.sessions; k++ {
			r := res[base+k]
			if r.Err != nil {
				out.fail(1, "%s: %v", r.Key, r.Err)
				continue
			}
			o := r.Value
			if k == 0 {
				if o.path != "" {
					stats.TraceFiles++
				}
				rep.TracePath = o.path
				rep.LatencyClean, rep.LatencyRetx = o.clean, o.retx
				perSession[op.Acronym] = [2]float64{o.dl, o.ul}
				out.counts["records_written"] += float64(o.written)
			}
			dl += o.dl
			ul += o.ul
			nrUL += o.nrUL
			lteUL += o.lteUL
			nOK++
			if k > 0 {
				stats.Minutes += c.duration.Minutes()
				stats.DataTB += (o.dl + o.ul) * 1e6 / 8 * c.duration.Seconds() / 1e12
			}
		}
		rep.Sessions = nOK
		if nOK > 0 {
			n := float64(nOK)
			rep.DLMbps = dl / n
			rep.ULMbps = ul / n
			rep.NRULMbps = nrUL / n
			rep.LTEULMbps = lteUL / n
			rep.DataBytes = (dl/n + ul/n) * 1e6 / 8 * c.duration.Seconds()
			stats.Minutes += c.duration.Minutes()
			stats.DataTB += rep.DataBytes / 1e12
		}
		stats.Sessions = append(stats.Sessions, rep)
		stats.Countries[op.Country] = true
		stats.Cities[op.City] = true
	}
	stats.Operators = len(c.ops)
	checks := c.readBack(tr, out, e, stats)
	c.check(out, stats, checks, perSession)
	for _, t := range checks {
		out.counts["records_scanned"] += float64(t.records)
	}
	return out
}

// replaySession is one campaign job: build the session, warm it up,
// capture session 0 to an xcol trace through a timed writer, run the
// bulk transfer and, for session 0, the latency probes.
func (c *campaignTraces) replaySession(j *jobTrace, p int32, dir string, base int64, op operators.Operator, k int) (sessionResult, error) {
	var r sessionResult
	seed := fleet.SplitSeed(base, op.Acronym, k)
	sc := operators.Stationary(seed)
	var sess *core.Session
	if err := j.call("core.NewSession", p, func(int32) error {
		var err error
		sess, err = core.NewSession(op, sc)
		return err
	}); err != nil {
		return r, err
	}
	cfg, err := op.LinkConfig(sc)
	if err != nil {
		return r, err
	}
	// The ladder times one configuration per operator and capture mode:
	// sessions of one operator differ only in seed.
	slot := sess.Link.SlotDuration()
	plain := linkKey{name: op.Acronym + "/plain", cfg: cfg, demand: net5g.Saturate}
	if err := j.call("core.WarmUp", p, func(int32) error { return sess.WarmUp() }); err != nil {
		return r, err
	}
	j.use(plain, "iperf", int64(time.Second/slot))

	var tw *timedWriter
	var w xcal.TraceWriter // stays a nil interface unless session 0 captures
	var f *os.File
	measured := plain
	if k == 0 {
		r.path = filepath.Join(dir, fmt.Sprintf("%s-%s.xcol", op.Acronym, sc.Name))
		if err := j.call("xcol.CreateFile", p, func(int32) error {
			xw, file, err := xcol.CreateFile(r.path, sess.Meta())
			tw, f = &timedWriter{w: xw, delay: c.writeDelay}, file
			return err
		}); err != nil {
			return r, err
		}
		defer f.Close()
		w = tw
		measured = linkKey{name: op.Acronym + "/traced", cfg: cfg, demand: net5g.Saturate, rsrq: true, records: true}
	}
	var res *iperf.Result
	if err := j.call("core.RunIperf", p, func(id int32) error {
		var err error
		res, err = sess.RunIperf(c.duration, net5g.Saturate, w)
		if tw != nil {
			j.agg("xcol.write", id, tw.total, tw.calls)
		}
		return err
	}); err != nil {
		return r, err
	}
	j.use(measured, "iperf", int64(c.duration/slot))
	r.dl, r.ul, r.nrUL, r.lteUL = res.DLMbps, res.ULMbps, res.NRULMbps, res.LTEULMbps
	if tw != nil {
		before := tw.total
		err := tw.Close()
		j.agg("xcol.write", p, tw.total-before, 1)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return r, err
		}
		r.written = tw.kpis
		if err := j.call("core.RunLatency", p, func(int32) error {
			clean, retx, err := sess.RunLatency(c.probes, 0.08)
			r.clean, r.retx = meanDuration(clean), meanDuration(retx)
			return err
		}); err != nil {
			return r, err
		}
	}
	return r, nil
}

func meanDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s / time.Duration(len(ds))
}
