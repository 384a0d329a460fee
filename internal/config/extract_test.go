package config

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/midband5g/midband/internal/core"
	"github.com/midband5g/midband/internal/net5g"
	"github.com/midband5g/midband/internal/operators"
	"github.com/midband5g/midband/internal/xcal"
	"github.com/midband5g/midband/internal/xcol"
)

// captureTrace runs a short session for an operator and returns the trace.
func captureTrace(t *testing.T, acr string) []byte {
	return captureTraceFor(t, acr, time.Second)
}

// captureTraceFor runs a session of length d for an operator and
// returns its columnar trace.
func captureTraceFor(t *testing.T, acr string, d time.Duration) []byte {
	t.Helper()
	op, err := operators.ByAcronym(acr)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := core.NewSession(op, operators.Stationary(31))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := xcol.NewWriter(&buf, sess.Meta())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.RunIperf(d, net5g.Saturate, w); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func scan(t *testing.T, trace []byte) *xcol.Scanner {
	t.Helper()
	s, err := xcol.NewScanner(xcol.BytesReaderAt(trace), int64(len(trace)))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func extract(t *testing.T, trace []byte) *Extraction {
	t.Helper()
	ex, err := Extract(scan(t, trace))
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

func TestExtractTable2Row(t *testing.T) {
	// End-to-end Appendix 10.1: run V_Sp, decode its signaling, recover
	// the Table 2 row: n78, 30 kHz, TDD, 90 MHz, N_RB 245, 4 layers.
	ex := extract(t, captureTrace(t, "V_Sp"))
	if ex.MIBs == 0 {
		t.Error("no MIB captured")
	}
	if len(ex.Carriers) != 1 {
		t.Fatalf("V_Sp should have 1 carrier, got %d", len(ex.Carriers))
	}
	c := ex.Carriers[0]
	if c.Band != "n78" || c.SCSkHz != 30 || c.Duplex != "TDD" {
		t.Errorf("recovered %+v, want n78/30kHz TDD", c)
	}
	if c.NRB != 245 || c.BandwidthMHz != 90 {
		t.Errorf("N_RB=%d → %d MHz, want 245 → 90", c.NRB, c.BandwidthMHz)
	}
	if c.TDDPattern != "DDDDDDDSUU" {
		t.Errorf("TDD pattern %q", c.TDDPattern)
	}
	if c.MaxMIMOLayers != 4 || c.MCSTable != 2 {
		t.Errorf("layers=%d table=%d, want 4/2", c.MaxMIMOLayers, c.MCSTable)
	}
	// The recovered frequency sits inside n78.
	if c.FrequencyMHz < 3300 || c.FrequencyMHz > 3800 {
		t.Errorf("frequency %.0f MHz outside n78", c.FrequencyMHz)
	}
	if c.Note != "" {
		t.Errorf("unexpected extraction note: %s", c.Note)
	}
	// DCI format mix: a 256QAM-table operator uses format 1_1.
	if c.DCICount == 0 || c.DCI11Share < 0.9 {
		t.Errorf("DCI: count=%d 1_1 share=%.2f, want mostly 1_1", c.DCICount, c.DCI11Share)
	}
}

func TestExtract64QAMOperatorUsesDCI10(t *testing.T) {
	ex := extract(t, captureTrace(t, "O_Sp100"))
	c := ex.Carriers[0]
	if c.MCSTable != 1 {
		t.Errorf("O_Sp100 table = %d, want 1", c.MCSTable)
	}
	if c.DCICount == 0 || c.DCI11Share > 0.1 {
		t.Errorf("64QAM operator should use DCI 1_0: share=%.2f", c.DCI11Share)
	}
	if c.BandwidthMHz != 100 || c.NRB != 273 {
		t.Errorf("recovered %d MHz / %d RB, want 100/273", c.BandwidthMHz, c.NRB)
	}
}

func TestExtractTMobileCA(t *testing.T) {
	// Table 3's most intricate row: four carriers, two of them the n25
	// FDD channels whose printed N_RB values don't match the signaled
	// 15 kHz SCS — extraction must flag exactly that.
	ex := extract(t, captureTrace(t, "Tmb_US"))
	if len(ex.Carriers) != 4 {
		t.Fatalf("T-Mobile should expose 4 carriers, got %d", len(ex.Carriers))
	}
	pc := ex.Carriers[0]
	if pc.Band != "n41" || pc.BandwidthMHz != 100 || pc.NRB != 273 {
		t.Errorf("PCell recovered as %+v", pc)
	}
	flagged := 0
	for _, c := range ex.Carriers {
		if c.Band != "n25" {
			if c.Note != "" {
				t.Errorf("%s unexpectedly flagged: %s", c.Band, c.Note)
			}
			continue
		}
		if c.Duplex != "FDD" {
			t.Errorf("n25 should be FDD, got %s", c.Duplex)
		}
		if !strings.Contains(c.Note, "30 kHz column") {
			t.Errorf("n25 N_RB=%d should be flagged as the paper's 30 kHz-column value, note=%q", c.NRB, c.Note)
		} else {
			flagged++
		}
		if c.BandwidthMHz != 20 && c.BandwidthMHz != 5 {
			t.Errorf("n25 recovered bandwidth %d, want 20 or 5", c.BandwidthMHz)
		}
	}
	if flagged != 2 {
		t.Errorf("expected both n25 carriers flagged, got %d", flagged)
	}
}

func TestExtractErrors(t *testing.T) {
	// A trace with no SIB1 fails extraction.
	var buf bytes.Buffer
	w, err := xcol.NewWriter(&buf, xcal.Meta{Scenario: "empty"})
	if err != nil {
		t.Fatal(err)
	}
	k := xcal.SlotKPI{Slot: 1}
	if err := w.WriteKPI(&k); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Extract(scan(t, buf.Bytes())); err == nil {
		t.Error("extraction without SIB1 should fail")
	}
}

// TestExtractRejectsCorruptAux pins that a damaged signaling block
// fails the extraction. The scanner skips a block whose CRC fails, so
// without the check the DCI format mix would come from the surviving
// blocks only.
func TestExtractRejectsCorruptAux(t *testing.T) {
	trace := captureTraceFor(t, "Tmb_US", 12*time.Second)
	const kindAux = 3 // aux block kind in the xcol index
	var aux []xcol.IndexEntry
	for _, e := range scan(t, trace).Index() {
		if e.Kind == kindAux {
			aux = append(aux, e)
		}
	}
	if len(aux) < 2 {
		t.Fatalf("capture has %d aux blocks, want at least 2 so one survives the flip", len(aux))
	}
	// Flip a byte in the last aux block's payload (past its 13-byte
	// block header): its frames are DCIs only, so the SIB1 frames
	// survive and extraction would otherwise succeed.
	last := aux[len(aux)-1]
	trace[last.Offset+13+uint64(last.Len)/2] ^= 0x40
	_, err := Extract(scan(t, trace))
	var be xcol.BlockError
	if !errors.As(err, &be) || be.Offset != last.Offset {
		t.Fatalf("Extract on a trace with a corrupt aux block: err = %v, want the block at offset %d", err, last.Offset)
	}
}
