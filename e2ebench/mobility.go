package main

import (
	"time"

	"github.com/midband5g/midband/internal/analysis"
	"github.com/midband5g/midband/internal/core"
	"github.com/midband5g/midband/internal/experiments"
	"github.com/midband5g/midband/internal/iperf"
	"github.com/midband5g/midband/internal/net5g"
	"github.com/midband5g/midband/internal/operators"
	"github.com/midband5g/midband/internal/video"
)

// mobilityMmWave is the §7 mobility figures — Fig. 18, Fig. 19 and the
// §7 aggregate — with Quick options, one fleet job per figure as
// cmd/figures runs them.
type mobilityMmWave struct{}

var mobilityFigures = []string{"fig18", "fig19", "sec7"}

// The §7 operators and session parameters, as internal/experiments
// fixes them for Quick runs.
const (
	midBandAcr      = "Tmb_US"
	mmWaveAcr       = "Vzw_mmW"
	mobilitySession = 20 * time.Second
	fig19Warm       = 2000
	fig19Video      = 60 * time.Second // Quick: 240 s / 4
)

type mobilityOutputs struct {
	fig18 []experiments.Fig18Series
	fig19 []experiments.Fig19Point
	sec7  []experiments.Sec7Row
	// chunks and stalls count the replay's video.Result entries.
	chunks, stalls int
}

func (m mobilityMmWave) options(e *env) experiments.Options {
	return experiments.Options{Quick: true, Seed: e.seed, Workers: e.workers}
}

func (m mobilityMmWave) run(e *env) *outcome {
	out := newOutcome()
	o := m.options(e)
	var res mobilityOutputs
	results, _ := runPhase(nil, out, e.workers, mobilityFigures, func(_ *jobTrace, _ int32, i int) (time.Duration, error) {
		t0 := time.Now()
		var err error
		switch mobilityFigures[i] {
		case "fig18":
			res.fig18, err = experiments.Fig18(o)
		case "fig19":
			res.fig19, err = experiments.Fig19(o)
		case "sec7":
			res.sec7, err = experiments.Sec7(o)
		}
		return time.Since(t0), err
	})
	for _, r := range results {
		if r.Err != nil {
			out.fail(1, "%s: %v", r.Key, r.Err)
		}
		out.figTimes[r.Key] = r.Value
	}
	m.check(out, &res)
	return out
}

// check applies the §7 orderings every valid model must keep, one
// figure per operation, and digests the rows.
func (m mobilityMmWave) check(out *outcome, r *mobilityOutputs) {
	outageOK := 0
	for _, s := range r.fig18 {
		if s.Tech == "mmwave" && s.OutagePct > 0 {
			outageOK++
		}
	}
	if len(r.fig18) != 4 || outageOK != 2 {
		out.fail(1, "fig18: want mmWave outage above 0%% walking and driving, rows %+v", r.fig18)
	}
	q := map[string]float64{}
	for _, p := range r.fig19 {
		q[p.Tech+"/"+p.Mobility+"/"+p.Ladder] = p.NormBitrate
	}
	if len(r.fig19) != 4 ||
		!(q["mmwave/walking/400Mbps"] > q["midband/walking/400Mbps"]) ||
		!(q["mmwave/walking/1.25Gbps"] > q["mmwave/driving/1.25Gbps"]) {
		out.fail(1, "fig19: want mmWave walking above mid-band walking and walking above driving on 1.25 Gbps, got %v", q)
	}
	gainOK := len(r.sec7) == 2
	for _, row := range r.sec7 {
		gainOK = gainOK && row.StabilityGainPct > 0
	}
	if !gainOK {
		out.fail(1, "sec7: want a positive stability gain, rows %+v", r.sec7)
	}
	d := newDigester()
	for _, s := range r.fig18 {
		d.s(s.Tech, s.Mobility)
		d.f(s.DLMbps, s.OutagePct)
		for _, p := range s.Curve {
			d.i(int64(p.Scale), int64(p.Duration))
			d.f(p.V)
		}
	}
	for _, p := range r.fig19 {
		d.s(p.Tech, p.Mobility, p.Ladder)
		d.f(p.NormBitrate, p.StallPct)
	}
	for _, row := range r.sec7 {
		d.s(row.Mobility)
		d.f(row.MidBandMbps, row.MmWaveMbps, row.StabilityGainPct)
	}
	out.digest = d.sum()
}

func mobilityScenario(mob string, seed int64) operators.Scenario {
	if mob == "driving" {
		return operators.Driving(seed)
	}
	return operators.Walking(seed)
}

// replay runs the three figures through public calls, with the seeds,
// sessions and arithmetic of internal/experiments, under spans.
func (m mobilityMmWave) replay(e *env, tr *tracer) *outcome {
	out := newOutcome()
	seed := e.seed
	if seed == 0 {
		seed = 2024 // experiments.Options' default seed
	}
	var res mobilityOutputs
	results, fm := runPhase(tr, out, e.workers, mobilityFigures, func(j *jobTrace, root int32, i int) (struct{}, error) {
		name := mobilityFigures[i]
		return struct{}{}, j.call("experiments."+name, root, func(p int32) error {
			var err error
			switch name {
			case "fig18":
				res.fig18, err = replayFig18(j, p, seed)
			case "fig19":
				res.fig19, err = replayFig19(j, p, seed, &res)
			case "sec7":
				res.sec7, err = replaySec7(j, p, seed)
			}
			return err
		})
	})
	for _, r := range results {
		if r.Err != nil {
			out.fail(1, "%s: %v", r.Key, r.Err)
		}
	}
	out.counts["fleet_retries"] += float64(fm.Retries.Load())
	out.counts["video_chunks"], out.counts["video_stalls"] = float64(res.chunks), float64(res.stalls)
	m.check(out, &res)
	return out
}

// measureSession is experiments' measureOp: a session on op and sc, a
// DL-only bulk transfer of d, untraced.
func measureSession(j *jobTrace, p int32, name string, op operators.Operator, sc operators.Scenario, d time.Duration) (*iperf.Result, error) {
	var sess *core.Session
	if err := j.call("core.NewSession", p, func(int32) error {
		var err error
		sess, err = core.NewSession(op, sc)
		return err
	}); err != nil {
		return nil, err
	}
	cfg, err := op.LinkConfig(sc)
	if err != nil {
		return nil, err
	}
	key := linkKey{name: name, cfg: cfg, demand: net5g.Demand{DL: true}}
	slot := sess.Link.SlotDuration()
	if err := j.call("core.WarmUp", p, func(int32) error { return sess.WarmUp() }); err != nil {
		return nil, err
	}
	j.use(key, "iperf", int64(time.Second/slot))
	var res *iperf.Result
	err = j.call("core.RunIperf", p, func(int32) error {
		var err error
		res, err = sess.RunIperf(d, net5g.Demand{DL: true}, nil)
		return err
	})
	j.use(key, "iperf", int64(d/slot))
	return res, err
}

func replayFig18(j *jobTrace, p int32, seed int64) ([]experiments.Fig18Series, error) {
	var out []experiments.Fig18Series
	for _, tech := range []struct{ name, acr string }{{"midband", midBandAcr}, {"mmwave", mmWaveAcr}} {
		for _, mob := range []string{"walking", "driving"} {
			op, err := operators.ByAcronym(tech.acr)
			if err != nil {
				return nil, err
			}
			res, err := measureSession(j, p, "iperf/"+tech.name+"/"+mob, op, mobilityScenario(mob, seed+79), mobilitySession)
			if err != nil {
				return nil, err
			}
			outage := 0.0
			for _, s := range res.SINRdB {
				if s < -50 {
					outage++
				}
			}
			s := experiments.Fig18Series{
				Tech:      tech.name,
				Mobility:  mob,
				DLMbps:    res.DLMbps,
				OutagePct: 100 * outage / float64(len(res.SINRdB)),
			}
			proc := res.DLThroughputProcess()
			_ = j.call("analysis.Curve", p, func(int32) error {
				s.Curve = analysis.Curve(proc, res.SlotDuration, 12)
				return nil
			})
			out = append(out, s)
		}
	}
	return out, nil
}

// timedABR wraps the ABR a replayed video session decides with.
type timedABR struct {
	abr   video.ABR
	total time.Duration
	calls int64
}

func (t *timedABR) Name() string { return t.abr.Name() }

func (t *timedABR) Decide(s video.State) int {
	t0 := time.Now()
	q := t.abr.Decide(s)
	t.total += time.Since(t0)
	t.calls++
	return q
}

func replayFig19(j *jobTrace, p int32, seed int64, counts *mobilityOutputs) ([]experiments.Fig19Point, error) {
	const reps = 1 // Quick
	play := func(acr, mob string, ladder video.Ladder, ladderName string, seedOff int64) (experiments.Fig19Point, error) {
		var nb, sp float64
		for rep := 0; rep < reps; rep++ {
			op, err := operators.ByAcronym(acr)
			if err != nil {
				return experiments.Fig19Point{}, err
			}
			cfg, err := op.LinkConfig(mobilityScenario(mob, seed+seedOff+int64(rep)*13))
			if err != nil {
				return experiments.Fig19Point{}, err
			}
			var link *net5g.Link
			if err := j.call("net5g.NewLink", p, func(int32) error {
				var err error
				link, err = net5g.NewLink(cfg)
				return err
			}); err != nil {
				return experiments.Fig19Point{}, err
			}
			// Play steps the link downloading (DL demand) or idle while
			// the buffer is full; the ladder times both kinds of step,
			// and a short Play on the download key's configuration.
			dlKey := linkKey{name: "video/" + acr + "/" + mob + "/" + ladderName + "/dl", cfg: cfg,
				demand: net5g.Demand{DL: true}, rsrq: true, ladder: ladder}
			idleKey := linkKey{name: "video/" + acr + "/" + mob + "/" + ladderName + "/idle", cfg: cfg, rsrq: true}
			_ = j.call("net5g.Link.Step", p, func(int32) error {
				for i := 0; i < fig19Warm; i++ {
					link.Step(net5g.Demand{DL: true})
				}
				return nil
			})
			j.use(dlKey, "step", fig19Warm)
			abr := &timedABR{abr: video.NewBOLA()}
			var res *video.Result
			start := link.Now()
			if err := j.call("video.Play", p, func(id int32) error {
				var err error
				res, err = video.Play(link, video.SessionConfig{
					Ladder:        ladder,
					ChunkLength:   time.Second,
					VideoDuration: fig19Video,
					ABR:           abr,
				})
				j.agg("video.ABR.Decide", id, abr.total, abr.calls)
				return err
			}); err != nil {
				return experiments.Fig19Point{}, err
			}
			var dlSteps int64
			for _, ch := range res.Chunks {
				dlSteps += int64((ch.ArriveTime - ch.RequestTime) / link.SlotDuration())
			}
			j.use(dlKey, "video", dlSteps)
			j.use(idleKey, "step", int64((link.Now()-start)/link.SlotDuration())-dlSteps)
			counts.chunks += len(res.Chunks)
			counts.stalls += len(res.Stalls)
			nb += res.AvgNormBitrate
			sp += res.StallPct()
		}
		tech := "midband"
		if acr == mmWaveAcr {
			tech = "mmwave"
		}
		return experiments.Fig19Point{Tech: tech, Mobility: mob, Ladder: ladderName,
			NormBitrate: nb / float64(reps), StallPct: sp / float64(reps)}, nil
	}
	var pts []experiments.Fig19Point
	for _, acr := range []string{midBandAcr, mmWaveAcr} {
		pt, err := play(acr, "walking", video.Ladder400, "400Mbps", 83)
		if err != nil {
			return nil, err
		}
		pts = append(pts, pt)
	}
	for _, mob := range []string{"walking", "driving"} {
		pt, err := play(mmWaveAcr, mob, video.LadderMmWave, "1.25Gbps", 89)
		if err != nil {
			return nil, err
		}
		pts = append(pts, pt)
	}
	return pts, nil
}

func replaySec7(j *jobTrace, p int32, seed int64) ([]experiments.Sec7Row, error) {
	relVar := func(res *iperf.Result) (float64, error) {
		series := res.DLThroughputProcess()
		scale := int(0.128 / res.SlotDuration.Seconds())
		var v float64
		err := j.call("analysis.Variability", p, func(int32) error {
			var err error
			v, err = analysis.Variability(series, scale)
			return err
		})
		if err != nil {
			return 0, err
		}
		m := analysis.Mean(series)
		if m == 0 {
			return 0, nil
		}
		return v / m, nil
	}
	var out []experiments.Sec7Row
	for _, mob := range []string{"walking", "driving"} {
		mid, err := measureSession(j, p, "iperf/midband/"+mob, mustOp(midBandAcr), mobilityScenario(mob, seed+97), mobilitySession)
		if err != nil {
			return nil, err
		}
		mmw, err := measureSession(j, p, "iperf/mmwave/"+mob, mustOp(mmWaveAcr), mobilityScenario(mob, seed+97), mobilitySession)
		if err != nil {
			return nil, err
		}
		vMid, err := relVar(mid)
		if err != nil {
			return nil, err
		}
		vMmw, err := relVar(mmw)
		if err != nil {
			return nil, err
		}
		gain := 0.0
		if vMmw > 0 {
			gain = 100 * (1 - vMid/vMmw)
		}
		out = append(out, experiments.Sec7Row{Mobility: mob, MidBandMbps: mid.DLMbps, MmWaveMbps: mmw.DLMbps, StabilityGainPct: gain})
	}
	return out, nil
}

func mustOp(acr string) operators.Operator {
	op, err := operators.ByAcronym(acr)
	if err != nil {
		panic(err) // the registry's own acronyms
	}
	return op
}
