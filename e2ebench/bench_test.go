package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"

	"github.com/midband5g/midband/internal/operators"
)

func TestSelfTimesSubtractsMergedChildren(t *testing.T) {
	spans := []span{
		{id: 0, parent: -1, name: "fleet.job", start: 0, end: 100},
		{id: 1, parent: 0, name: "core.RunIperf", start: 10, end: 40},
		{id: 2, parent: 0, name: "core.RunLatency", start: 30, end: 60}, // overlaps id 1
		{id: 3, parent: 0, name: "xcol.write", agg: true, total: 10, count: 4},
		{id: 4, parent: 1, name: "analysis.Curve", start: 15, end: 20},
		{id: 5, parent: 1, name: "analysis.Curve", start: 35, end: 50}, // runs past its parent
	}
	self := selfTimes(spans)
	want := map[int32]int64{
		0: 100 - 50 - 10, // children cover [10,60] once, plus the aggregate
		1: 30 - 5 - 5,    // id 5 counts only up to its parent's end
		2: 30,
		3: 10,
		4: 5,
		5: 15,
	}
	for id, w := range want {
		if got := self[spanKey{0, id}]; got != w {
			t.Errorf("span %d (%s): self %d, want %d", id, spans[id].name, got, w)
		}
	}
	st := summarize(spans)
	if got, w := st.unattributedShare(), 40.0/100; got != w {
		t.Errorf("unattributed share %v, want %v", got, w)
	}
	if got := st.self["analysis.Curve"]; got != 20 {
		t.Errorf("analysis.Curve self %d, want 20", got)
	}
	if got := st.counts["xcol.write"]; got != 4 {
		t.Errorf("xcol.write calls %d, want 4", got)
	}
}

func TestSelfTimeNeverNegative(t *testing.T) {
	spans := []span{
		{id: 0, parent: -1, name: "fleet.job", start: 0, end: 10},
		{id: 1, parent: 0, name: "xcol.write", agg: true, total: 25, count: 1},
	}
	if got := selfTimes(spans)[spanKey{0, 0}]; got != 0 {
		t.Errorf("self %d, want 0", got)
	}
}

// TestSpansOfConcurrentJobsStayApart checks that spans recorded by
// jobs running at once keep their own job ids and parents.
func TestSpansOfConcurrentJobsStayApart(t *testing.T) {
	tr := newTracer()
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			j := tr.job()
			_ = j.call("core.NewSession", 0, func(p int32) error {
				j.agg("xcol.write", p, time.Microsecond, 3)
				return nil
			})
			j.done()
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	st := summarize(tr.spans)
	if len(st.jobDurs) != 4 || st.counts["core.NewSession"] != 4 || st.counts["xcol.write"] != 12 {
		t.Fatalf("jobs %d, sessions %d, writes %d; want 4, 4, 12",
			len(st.jobDurs), st.counts["core.NewSession"], st.counts["xcol.write"])
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricNames checks every metric's name and unit against the
// result format, and that BENCHMARK.json lists exactly these metrics.
func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) || seen[d.name] {
			t.Errorf("metric %q unit %q: bad name or unit, or listed twice", d.name, d.unit)
		}
		seen[d.name] = true
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, defs []metricDef, listed []struct{ Name, Unit string }) {
		if len(defs) != len(listed) {
			t.Errorf("%s: e2ebench has %d metrics, BENCHMARK.json %d", kind, len(defs), len(listed))
			return
		}
		for i, d := range defs {
			if d.name != listed[i].Name || d.unit != listed[i].Unit {
				t.Errorf("%s %d: e2ebench %s/%s, BENCHMARK.json %s/%s", kind, i, d.name, d.unit, listed[i].Name, listed[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, b.EndToEnd)
	same("per_layer", perLayer, b.PerLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, e2ebench %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, e2ebench %q", i, w.Name, workloads[i].name)
		}
	}
}

// TestPlantedWriterDelayLandsInXcol plants a fixed delay in the trace
// writer wrapper of a replayed campaign session: the traced layer
// times must put it in xcol's self time, not in the session call that
// contains the writes and not in the unattributed share.
func TestPlantedWriterDelayLandsInXcol(t *testing.T) {
	const delay = 20 * time.Microsecond
	op, err := operators.ByAcronym("V_Sp")
	if err != nil {
		t.Fatal(err)
	}
	c := newCampaignTraces()
	c.duration, c.probes = 250*time.Millisecond, 10
	// run replays the session three times and keeps each time's
	// fastest: other processes can only add time.
	type times struct{ write, iperf, unattributed time.Duration }
	run := func(d time.Duration) (times, int64) {
		c.writeDelay = d
		best := times{1 << 62, 1 << 62, 1 << 62}
		var n int64
		for i := 0; i < 3; i++ {
			tr := newTracer()
			j := tr.job()
			r, err := c.replaySession(j, 0, t.TempDir(), 7, op, 0)
			j.done()
			if err != nil {
				t.Fatal(err)
			}
			st := summarize(tr.spans)
			best.write = min(best.write, time.Duration(st.self["xcol.write"]))
			best.iperf = min(best.iperf, time.Duration(st.self["core.RunIperf"]))
			best.unattributed = min(best.unattributed, time.Duration(st.jobSelf))
			n = r.written
		}
		return best, n
	}
	base, n := run(0)
	planted, _ := run(delay)
	added := time.Duration(n) * delay
	if got := planted.write - base.write; got < added {
		t.Errorf("xcol.write self grew by %v, want at least %v (%d records)", got, added, n)
	}
	if grew := planted.unattributed - base.unattributed; grew > added/10 {
		t.Errorf("unattributed time grew by %v of the %v planted", grew, added)
	}
	if grew := planted.iperf - base.iperf; grew > added/10 {
		t.Errorf("core.RunIperf self grew by %v of the %v planted", grew, added)
	}
}

// TestReplaysMatchUntracedRuns checks the equivalence guard's premise on
// small configurations: the traced replay reproduces the untraced run's
// outputs bit for bit.
func TestReplaysMatchUntracedRuns(t *testing.T) {
	e := &env{seed: 11, workers: 2, dir: t.TempDir()}
	ops := operators.MidBand()
	c := newCampaignTraces()
	c.ops, c.duration, c.sessions, c.probes = []operators.Operator{ops[0], ops[len(ops)-1]}, 300*time.Millisecond, 2, 50
	m := newMultiUEContention()
	m.ops, m.ues, m.duration = ops[:2], 8, 100*time.Millisecond
	for name, w := range map[string]workload{"campaign": c, "multiue": m} {
		u := w.run(e)
		r := w.replay(e, newTracer())
		if u.digest == "" || u.digest != r.digest {
			t.Errorf("%s: untraced digest %q, replay %q", name, u.digest, r.digest)
		}
		if r.attempted != u.attempted {
			t.Errorf("%s: untraced run attempted %d operations, replay %d", name, u.attempted, r.attempted)
		}
	}
}
