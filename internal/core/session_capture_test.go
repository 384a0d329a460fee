package core

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"github.com/midband5g/midband/internal/fault"
	"github.com/midband5g/midband/internal/fleet"
	"github.com/midband5g/midband/internal/iperf"
	"github.com/midband5g/midband/internal/net5g"
	"github.com/midband5g/midband/internal/operators"
	"github.com/midband5g/midband/internal/xcal"
	"github.com/midband5g/midband/internal/xcol"
)

// referenceCapture writes a session capture the collect-then-synthesize
// way: keep a copy of every KPI record, then derive one DCI frame per 16
// DL NR records that carry a transport block after the run. The streamed
// capture of Session.RunIperf must match it byte for byte.
func referenceCapture(s *Session, d time.Duration, w xcal.TraceWriter) error {
	if err := s.WarmUp(); err != nil {
		return err
	}
	s.Link.SetRSRQNeeded(true)
	mib, sibs, err := s.Signaling()
	if err != nil {
		return err
	}
	if err := w.WriteMIB(&mib); err != nil {
		return err
	}
	for i := range sibs {
		if err := w.WriteSIB1(&sibs[i]); err != nil {
			return err
		}
	}
	res, err := iperf.Run(s.Link, iperf.Config{Duration: d, Demand: net5g.Saturate, Trace: w, KeepRecords: true})
	if err != nil {
		return err
	}
	n := 0
	for i := range res.Records {
		r := &res.Records[i]
		if r.Dir != xcal.DL || r.RAT != xcal.NR || r.TBSBits == 0 {
			continue
		}
		if n++; n%16 != 0 {
			continue
		}
		format := xcal.DCI10
		if r.MCSTable == 2 {
			format = xcal.DCI11
		}
		if err := w.WriteDCI(&xcal.DCI{
			Slot: r.Slot, Format: format, Carrier: r.Carrier,
			MCS: r.MCS, RBs: r.RBs, Rank: r.Rank, NDI: r.HARQRetx == 0,
		}); err != nil {
			return err
		}
	}
	return nil
}

// captureBytes runs one session of op under the fault plan fs (nil for
// none) into an in-memory columnar trace and returns the bytes and the
// run's error. The plan shortens the session to its abort
// point like runSession does, and its trace faults wrap the sink.
func captureBytes(t *testing.T, op operators.Operator, fs *fault.Session, run func(*Session, time.Duration, xcal.TraceWriter) error) ([]byte, error) {
	t.Helper()
	sess, err := NewSessionWithFaults(op, operators.Stationary(fleet.SplitSeed(11, op.Acronym, 0)), fs)
	if err != nil {
		t.Fatal(err)
	}
	d := 1500 * time.Millisecond
	if fs != nil && fs.Abort {
		d = time.Duration(float64(d) * fs.AbortFraction)
	}
	var buf bytes.Buffer
	var sink io.Writer = &buf
	if wrap := traceWrap(fs); wrap != nil {
		sink = wrap(sink)
	}
	w, err := xcol.NewWriter(sink, sess.Meta())
	if err != nil {
		t.Fatal(err)
	}
	err = run(sess, d, w)
	if err == nil {
		err = w.Close()
	}
	return buf.Bytes(), err
}

// TestStreamedDCIMatchesReference pins that picking DCI samples while
// the records stream writes exactly the capture the collect-then-
// synthesize path writes, through RunIperf and the campaign's
// discarding variant, on a clean session, a session the fault plan
// aborts (with radio faults on its link) and a session whose trace
// sink fails partway.
func TestStreamedDCIMatchesReference(t *testing.T) {
	op := campaignOps(t, "V_Sp")[0]
	aborting := mustFaults(t, fault.Config{
		SessionAbortProb: 1, RLFProbPerSlot: 2e-3, BlackoutProbPerSlot: 1e-3, Seed: 3,
	}).Session("V_Sp/0", 0)
	if !aborting.Abort {
		t.Fatal("fault plan does not abort the session")
	}
	failing := mustFaults(t, fault.Config{TraceErrorPerWrite: 0.25, Seed: 1}).Session("V_Sp/0", 0)
	plans := []struct {
		name    string
		fs      *fault.Session
		wantErr bool
	}{
		{"clean", nil, false},
		{"abort", aborting, false},
		{"trace-io", failing, true},
	}
	for _, p := range plans {
		want, wantErr := captureBytes(t, op, p.fs, referenceCapture)
		if (wantErr != nil) != p.wantErr {
			t.Fatalf("%s: reference error %v", p.name, wantErr)
		}
		for _, discard := range []bool{false, true} {
			name := fmt.Sprintf("%s/discard=%v", p.name, discard)
			got, gotErr := captureBytes(t, op, p.fs, func(s *Session, d time.Duration, w xcal.TraceWriter) error {
				_, err := s.runIperf(d, net5g.Saturate, w, discard)
				return err
			})
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Errorf("%s: error %v, reference %v", name, gotErr, wantErr)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: %d trace bytes differ from the %d-byte reference", name, len(got), len(want))
			}
		}
	}
}

// captureCampaign is the small traced campaign the memory and slot-count
// pins run: 2 operators × 3 sessions × 2 s.
func captureCampaign(t *testing.T) CampaignConfig {
	return CampaignConfig{
		Operators:           campaignOps(t, "V_Sp", "Tmb_US"),
		SessionDuration:     2 * time.Second,
		SessionsPerOperator: 3,
		LatencyProbes:       100,
		TraceDir:            t.TempDir(),
		Seed:                8,
		Workers:             1,
	}
}

// TestCampaignAllocPerSlot bounds the bytes a traced campaign allocates
// per simulated slot. Keeping every session's per-slot series and a copy
// of the primary's KPI records until the campaign ends cost 347 B/slot
// on this campaign; streaming the capture and keeping four averages per
// session costs 102 B/slot.
func TestCampaignAllocPerSlot(t *testing.T) {
	cfg := captureCampaign(t)
	var m fleet.Metrics
	cfg.Metrics = &m
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := RunCampaign(cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perSlot := float64(after.TotalAlloc-before.TotalAlloc) / float64(m.SlotsSimulated.Load())
	const bound = 200
	if perSlot > bound {
		t.Errorf("campaign allocated %.0f B per simulated slot, bound %d", perSlot, bound)
	}
}

// TestCampaignSlotsSimulated pins the simulated-slot count to the number
// of steps each session runs: 6 sessions × 4000 slots of 0.5 ms, the
// count the campaign reported when it measured the per-slot series.
func TestCampaignSlotsSimulated(t *testing.T) {
	cfg := captureCampaign(t)
	var m fleet.Metrics
	cfg.Metrics = &m
	if _, err := RunCampaign(cfg); err != nil {
		t.Fatal(err)
	}
	if got := m.SlotsSimulated.Load(); got != 24000 {
		t.Errorf("SlotsSimulated = %d, want 24000", got)
	}
}
