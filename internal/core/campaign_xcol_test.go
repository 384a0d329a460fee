package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/midband5g/midband/internal/operators"
	"github.com/midband5g/midband/internal/xcal"
	"github.com/midband5g/midband/internal/xcol"
)

// TestCampaignXcolTraces runs a campaign and checks the captures are
// complete: readable through the indexed scanner, KPI records present,
// signaling aux frames replayable, and per-slot content identical after
// conversion to the legacy row container. TraceFormat "" and "xcol"
// must write the same bytes; any other value is rejected.
func TestCampaignXcolTraces(t *testing.T) {
	op, err := operators.ByAcronym("V_Sp")
	if err != nil {
		t.Fatal(err)
	}
	base := CampaignConfig{
		Operators:           []operators.Operator{op},
		SessionDuration:     time.Second,
		SessionsPerOperator: 1,
		LatencyProbes:       100,
		Seed:                5,
	}

	colCfg := base
	colCfg.TraceDir = t.TempDir()
	colCfg.TraceFormat = "xcol"
	colStats, err := RunCampaign(colCfg)
	if err != nil {
		t.Fatal(err)
	}
	defCfg := base
	defCfg.TraceDir = t.TempDir()
	defStats, err := RunCampaign(defCfg)
	if err != nil {
		t.Fatal(err)
	}

	colPath := colStats.Sessions[0].TracePath
	if !strings.HasSuffix(colPath, ".xcol") {
		t.Fatalf("columnar campaign wrote %q, want .xcol extension", colPath)
	}
	if format, err := xcol.DetectFormat(colPath); err != nil || format != "xcol" {
		t.Fatalf("DetectFormat(%s) = %q, %v", filepath.Base(colPath), format, err)
	}

	s, f, err := xcol.OpenFile(colPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if s.Sequential() {
		t.Fatal("campaign trace has no usable index — Close did not finalize the footer")
	}
	if s.Meta().Operator != "V_Sp" {
		t.Fatalf("meta operator %q", s.Meta().Operator)
	}
	var colKPIs []xcal.SlotKPI
	for {
		blk, err := s.Next()
		if err != nil {
			break
		}
		colKPIs = blk.AppendRows(colKPIs)
	}
	if len(s.Corrupt()) != 0 {
		t.Fatalf("campaign trace has corrupt blocks: %v", s.Corrupt())
	}
	var sibs int
	err = s.AuxFrames(func(ft xcal.FrameType, pos uint64, payload []byte) error {
		if ft == xcal.FrameSIB1 {
			sibs++
		}
		return nil
	})
	if err != nil || sibs == 0 {
		t.Fatalf("aux replay: sibs=%d err=%v", sibs, err)
	}

	// The row form of the capture must hold the same slots.
	fi, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	var row bytes.Buffer
	if _, err := xcol.ConvertColToRow(f, fi.Size(), &row); err != nil {
		t.Fatal(err)
	}
	r, err := xcal.NewReader(&row)
	if err != nil {
		t.Fatal(err)
	}
	var rowKPIs []xcal.SlotKPI
	for {
		ft, err := r.Next()
		if err != nil {
			break
		}
		if ft == xcal.FrameKPI {
			rowKPIs = append(rowKPIs, r.KPI)
		}
	}
	if len(colKPIs) == 0 || len(colKPIs) != len(rowKPIs) {
		t.Fatalf("columnar capture has %d KPIs, its row form %d", len(colKPIs), len(rowKPIs))
	}
	for i := range colKPIs {
		if colKPIs[i] != rowKPIs[i] {
			t.Fatalf("record %d diverges between containers: %+v vs %+v", i, colKPIs[i], rowKPIs[i])
		}
	}

	// The default format is the columnar container, byte for byte.
	defPath := defStats.Sessions[0].TracePath
	if filepath.Base(defPath) != filepath.Base(colPath) {
		t.Fatalf("default campaign wrote %q, xcol campaign %q", filepath.Base(defPath), filepath.Base(colPath))
	}
	colBytes, err := os.ReadFile(colPath)
	if err != nil {
		t.Fatal(err)
	}
	defBytes, err := os.ReadFile(defPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(colBytes, defBytes) {
		t.Fatalf("TraceFormat \"\" wrote %d bytes, \"xcol\" %d", len(defBytes), len(colBytes))
	}
	if colStats.Sessions[0].DLMbps != defStats.Sessions[0].DLMbps {
		t.Fatalf("DLMbps differs by trace format: %v vs %v",
			colStats.Sessions[0].DLMbps, defStats.Sessions[0].DLMbps)
	}

	rowCfg := base
	rowCfg.TraceDir = t.TempDir()
	rowCfg.TraceFormat = "xcal"
	if _, err := RunCampaign(rowCfg); err == nil || !strings.Contains(err.Error(), "unknown trace format") {
		t.Fatalf("TraceFormat \"xcal\": err = %v, want unknown trace format", err)
	}
}
