package main

import (
	"fmt"
	"math"
	"slices"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are measured with tracing off, on every workload.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"alloc_mb", "MB"},
}

// perLayer are reported by the traced run. A layer the workload does
// not enter reports 0.
var perLayer = []metricDef{
	{"channel.step_ns_per_slot", "ns"},
	{"channel.geometry_ns_per_call", "ns"},
	{"channel.batch_ns_per_ue_slot", "ns"},
	{"channel.batch_fast_lane_share", "share"},
	{"gnb.carrier_ns_per_slot", "ns"},
	{"gnb.cellbatch_ns_per_ue_slot", "ns"},
	{"gnb.cell_build_ms", "ms"},
	{"gnb.tb_ack_ratio", "share"},
	{"gnb.rlf_count", "count"},
	{"net5g.link_ns_per_slot", "ns"},
	{"net5g.latency_ns_per_probe", "ns"},
	{"core.session_build_ms", "ms"},
	{"core.warmup_ms", "ms"},
	{"iperf.run_ns_per_slot", "ns"},
	{"iperf.alloc_bytes_per_slot", "B"},
	{"xcol.write_ns_per_record", "ns"},
	{"xcol.bytes_per_record", "B"},
	{"xcol.scan_ns_per_record", "ns"},
	{"analysis.curve_ms", "ms"},
	{"video.play_ns_per_slot", "ns"},
	{"video.abr_decide_ns", "ns"},
	{"video.chunks", "count"},
	{"video.stalls", "count"},
	{"experiments.fig18_s", "s"},
	{"experiments.fig19_s", "s"},
	{"experiments.sec7_s", "s"},
	{"fleet.jobs", "count"},
	{"fleet.retries", "count"},
	{"fleet.job_p50_ms", "ms"},
	{"fleet.job_max_ms", "ms"},
	{"fleet.worker_idle_share", "share"},
	{"bench.trace_overhead_share", "share"},
	{"bench.unattributed_share", "share"},
}

// ladderRates holds the rung measurements of the configurations a
// replay recorded, keyed by configuration name.
type ladderRates struct {
	links map[string]rungRates
	cells []cellRates
}

// measureLadder runs the rung ladder over every configuration a replay
// recorded: n link steps per link configuration, cellSlots slots per
// cell.
func measureLadder(out *outcome, n, cellSlots int) (*ladderRates, error) {
	lr := &ladderRates{links: map[string]rungRates{}}
	for _, u := range out.uses {
		if _, ok := lr.links[u.key.name]; ok {
			continue
		}
		r, err := ladderLink(u.key, n)
		if err != nil {
			return nil, fmt.Errorf("ladder %s: %w", u.key.name, err)
		}
		lr.links[u.key.name] = r
	}
	for _, c := range out.cells {
		r, err := ladderCell(c, cellSlots)
		if err != nil {
			return nil, fmt.Errorf("cell ladder: %w", err)
		}
		lr.cells = append(lr.cells, r)
	}
	return lr, nil
}

// layerMetrics turns one replay's spans and counts, the ladder's rung
// rates and the untraced pass's figure times into the per-layer
// metrics (all but bench.trace_overhead_share, which needs both runs).
func layerMetrics(rep *outcome, lr *ladderRates, untraced *outcome) map[string]float64 {
	st := summarize(rep.spans)
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.name] = 0
	}

	// Link rungs, weighted by the link steps each configuration served.
	var steps, chSlots, chNs, carSelf, linkSelf, geo float64
	var ipSteps, ipSelf, ipAlloc, videoSteps, videoSelf float64
	var tbs, acks, rlfs int64
	counted := map[string]bool{}
	for _, u := range rep.uses {
		r := lr.links[u.key.name]
		s := float64(u.steps)
		steps += s
		chSlots += s * r.chSlots
		chNs += s * r.chNs
		carSelf += s * r.carSelf
		linkSelf += s * r.linkSelf
		geo += s * r.geoNs
		switch u.kind {
		case "iperf":
			ipSteps += s
			ipSelf += s * r.iperfSelf
			ipAlloc += s * r.allocBytes
		case "video":
			videoSteps += s
			videoSelf += s * r.videoSelf
		}
		if !counted[u.key.name] {
			counted[u.key.name] = true
			tbs, acks, rlfs = tbs+r.tbs, acks+r.acks, rlfs+r.rlfs
		}
	}
	if steps > 0 {
		m["channel.step_ns_per_slot"] = chNs / chSlots
		m["gnb.carrier_ns_per_slot"] = carSelf / chSlots
		m["net5g.link_ns_per_slot"] = linkSelf / steps
		m["channel.geometry_ns_per_call"] = geo / steps
	}
	if ipSteps > 0 {
		m["iperf.run_ns_per_slot"] = ipSelf / ipSteps
		m["iperf.alloc_bytes_per_slot"] = ipAlloc / ipSteps
	}
	if videoSteps > 0 {
		m["video.play_ns_per_slot"] = videoSelf / videoSteps
	}
	if n := st.counts["video.ABR.Decide"]; n > 0 {
		m["video.abr_decide_ns"] = float64(st.self["video.ABR.Decide"]) / float64(n)
	}
	m["video.chunks"] = rep.counts["video_chunks"]
	m["video.stalls"] = rep.counts["video_stalls"]

	// Batch rungs (multi-UE cells).
	var batch, cell float64
	for _, c := range lr.cells {
		batch += c.batchNs
		cell += c.cellSelf
		tbs, acks = tbs+c.tbs, acks+c.acks
	}
	if n := float64(len(lr.cells)); n > 0 {
		m["channel.batch_ns_per_ue_slot"] = batch / n
		m["gnb.cellbatch_ns_per_ue_slot"] = cell / n
	}
	if rep.counts["lanes"] > 0 {
		m["channel.batch_fast_lane_share"] = rep.counts["fast_lanes"] / rep.counts["lanes"]
	}
	if len(st.durs["gnb.NewCell"]) > 0 {
		m["gnb.cell_build_ms"] = (medianNs(st.durs["gnb.NewCell"]) + medianNs(st.durs["gnb.NewCellBatch"])) / 1e6
	}
	if tbs > 0 {
		m["gnb.tb_ack_ratio"] = float64(acks) / float64(tbs)
	}
	m["gnb.rlf_count"] = float64(rlfs)

	// Calls spanned directly.
	if n := st.counts["core.RunLatency"]; n > 0 {
		m["net5g.latency_ns_per_probe"] = float64(sum(st.durs["core.RunLatency"])) / float64(n) / rep.counts["latency_probes"]
	}
	m["core.session_build_ms"] = medianNs(st.durs["core.NewSession"]) / 1e6
	m["core.warmup_ms"] = medianNs(st.durs["core.WarmUp"]) / 1e6
	if n := rep.counts["records_written"]; n > 0 {
		m["xcol.write_ns_per_record"] = float64(st.self["xcol.write"]+sum(st.durs["xcol.CreateFile"])) / n
		m["xcol.bytes_per_record"] = rep.counts["trace_bytes"] / rep.counts["trace_records"]
	}
	if n := rep.counts["records_scanned"]; n > 0 {
		m["xcol.scan_ns_per_record"] = float64(st.self["xcol.Scanner.Next"]) / n
	}
	m["analysis.curve_ms"] = medianNs(st.durs["analysis.Curve"]) / 1e6
	for _, f := range mobilityFigures {
		m["experiments."+f+"_s"] = untraced.figTimes[f].Seconds()
	}

	// The pool.
	m["fleet.jobs"] = float64(len(st.jobDurs))
	m["fleet.retries"] = rep.counts["fleet_retries"]
	m["fleet.job_p50_ms"] = medianNs(st.jobDurs) / 1e6
	if len(st.jobDurs) > 0 {
		m["fleet.job_max_ms"] = float64(slices.Max(st.jobDurs)) / 1e6
	}
	if rep.capacity > 0 {
		m["fleet.worker_idle_share"] = 1 - float64(st.jobTime)/float64(rep.capacity)
	}
	m["bench.unattributed_share"] = st.unattributedShare()
	for k, v := range m {
		m[k] = finite(v)
	}
	return m
}

// finite guards a metric against NaN and ±Inf, which JSON cannot carry.
func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}

func sum(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}
