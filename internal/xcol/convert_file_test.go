package xcol

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"github.com/midband5g/midband/internal/xcal"
)

// TestConvertFileRoundTrip drives the file-level conversion entry point
// (what `xcaldump -convert` calls) both ways: columnar → row → columnar
// must reproduce the original file byte for byte, including the
// interleaved signaling frames.
func TestConvertFileRoundTrip(t *testing.T) {
	var col bytes.Buffer
	w, err := NewWriter(&col, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteMIB(&xcal.MIB{SFN: 3, SCSkHz: 30}); err != nil {
		t.Fatal(err)
	}
	records := genKPIs(BlockCap+321, 13)
	for i := range records {
		if err := w.WriteKPI(&records[i]); err != nil {
			t.Fatal(err)
		}
		if i == 100 {
			d := xcal.DCI{Slot: records[i].Slot, Format: xcal.DCI11, MCS: 20, RBs: 200}
			if err := w.WriteDCI(&d); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	src := filepath.Join(dir, "trace.xcol")
	mid := filepath.Join(dir, "trace.xcal")
	back := filepath.Join(dir, "back.xcol")
	if err := os.WriteFile(src, col.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	dirn, n, err := ConvertFile(src, mid)
	if err != nil {
		t.Fatal(err)
	}
	if dirn != "xcol→xcal" || n != uint64(len(records)) {
		t.Fatalf("forward conversion: %s, %d records", dirn, n)
	}
	if format, err := DetectFormat(mid); err != nil || format != "xcal" {
		t.Fatalf("converted file detects as %q, %v", format, err)
	}

	dirn, n, err = ConvertFile(mid, back)
	if err != nil {
		t.Fatal(err)
	}
	if dirn != "xcal→xcol" || n != uint64(len(records)) {
		t.Fatalf("backward conversion: %s, %d records", dirn, n)
	}
	got, err := os.ReadFile(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, col.Bytes()) {
		t.Fatalf("col → row → col not byte-identical: %d vs %d bytes", len(got), col.Len())
	}
}
