package xcol

import (
	"bytes"
	"io"
	"testing"

	"github.com/midband5g/midband/internal/xcal"
)

// Native fuzz targets for the columnar decoders, mirroring the xcal
// set. `go test` exercises the seed corpus; the CI fuzz-smoke job runs
// each target for a short wall-clock budget.

// kpiPayload encodes n records into one raw KPI block payload.
func kpiPayload(f *testing.F, n int) []byte {
	f.Helper()
	var blk Block
	records := genKPIs(n, 3)
	for i := range records {
		blk.appendKPI(&records[i])
	}
	var e blockEncoder
	return e.encodeKPIBlock(nil, &blk)
}

// legacyPayload encodes n records into one KPI block payload whose Slot
// and Time columns are encDelta and whose SINR and RSRP columns are
// encXorRLE — encodings the writer no longer emits but the decoder
// still reads. It checks the payload decodes back to the records.
func legacyPayload(f *testing.F, n int) []byte {
	f.Helper()
	var blk Block
	records := genKPIs(n, 4)
	for i := range records {
		blk.appendKPI(&records[i])
	}
	var e blockEncoder
	std := e.encodeKPIBlock(nil, &blk)
	out := []byte{std[0]}
	for pos := 1; pos < len(std); {
		id, enc := int(std[pos]), std[pos+1]
		l, p := uvarint(std, pos+2)
		data := std[p : p+int(l)]
		pos = p + int(l)
		switch id {
		case ColSlot:
			enc, data = encDelta, deltaPayload(blk.Slot)
		case ColTime:
			enc, data = encDelta, deltaPayload(blk.Time)
		case ColSINRdB:
			enc, data = encXorRLE, xorRLEPayload(blk.SINRdB)
		case ColRSRPdBm:
			enc, data = encXorRLE, xorRLEPayload(blk.RSRPdBm)
		}
		out = e.col(out, id, enc, data)
	}
	var back Block
	if err := decodeKPIBlock(out, n, &back, 0, 0); err != nil {
		f.Fatalf("legacy block does not decode: %v", err)
	}
	for i, r := range back.AppendRows(nil) {
		if r != records[i] {
			f.Fatalf("legacy block row %d = %+v, want %+v", i, r, records[i])
		}
	}
	return out
}

// FuzzDecodeBlock feeds arbitrary bytes to the KPI block decoder. A
// payload it accepts must re-encode and re-decode to identical rows —
// the decode is the format's source of truth, so any divergence means
// either the decoder fabricated data or the encoder cannot represent a
// decodable state.
func FuzzDecodeBlock(f *testing.F) {
	f.Add(kpiPayload(f, 1), 1)
	f.Add(kpiPayload(f, 57), 57)
	f.Add(kpiPayload(f, BlockCap), BlockCap)
	f.Add([]byte{}, 1)
	f.Add([]byte{22}, 3)
	f.Add(legacyPayload(f, 300), 300)
	f.Add(legacyPayload(f, BlockCap), BlockCap)
	f.Fuzz(func(t *testing.T, data []byte, count int) {
		var blk Block
		if err := decodeKPIBlock(data, count, &blk, 0, 0); err != nil {
			return
		}
		rows := blk.AppendRows(nil)
		var re Block
		for i := range rows {
			re.appendKPI(&rows[i])
		}
		var e blockEncoder
		enc := e.encodeKPIBlock(nil, &re)
		var back Block
		if err := decodeKPIBlock(enc, count, &back, 0, 0); err != nil {
			t.Fatalf("re-encode of accepted block does not decode: %v", err)
		}
		rows2 := back.AppendRows(nil)
		for i := range rows {
			if rows[i] != rows2[i] {
				t.Fatalf("row %d diverged across re-encode: %+v vs %+v", i, rows[i], rows2[i])
			}
		}
	})
}

// FuzzDecodeFooter splices arbitrary bytes over a valid trace's index
// block and tail: the scanner must either parse a usable index or fall
// back to the sequential walk — never panic, never fabricate records.
func FuzzDecodeFooter(f *testing.F) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, testMeta())
	if err != nil {
		f.Fatal(err)
	}
	records := genKPIs(300, 9)
	for i := range records {
		if err := w.WriteKPI(&records[i]); err != nil {
			f.Fatal(err)
		}
	}
	bodyLen := buf.Len() // blocks only: index + tail not yet written
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	trace := buf.Bytes()
	body := trace[:bodyLen]
	footer := trace[bodyLen:]

	f.Add(footer)
	f.Add([]byte{})
	f.Add(footer[:len(footer)/2])
	f.Add(overflowIndexFooter(uint64(bodyLen)))
	f.Fuzz(func(t *testing.T, tail []byte) {
		file := append(append([]byte(nil), body...), tail...)
		s, err := NewScanner(BytesReaderAt(file), int64(len(file)))
		if err != nil {
			return
		}
		n := 0
		for {
			blk, err := s.Next()
			if err != nil {
				break
			}
			rows := blk.AppendRows(nil)
			for _, r := range rows {
				if n < len(records) && r != records[n] {
					t.Fatalf("record %d fabricated under fuzzed footer", n)
				}
				n++
			}
		}
		if n > len(records) {
			t.Fatalf("scanned %d records from a %d-record body", n, len(records))
		}
	})
}

// FuzzColScanner feeds arbitrary bytes to the whole read surface:
// open, scan, aux replay.
func FuzzColScanner(f *testing.F) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, testMeta())
	if err != nil {
		f.Fatal(err)
	}
	k := xcal.SlotKPI{Slot: 1, RBs: 245, TBSBits: 392000, DeliveredBits: 392000, ACK: true}
	_ = w.WriteKPI(&k)
	d := xcal.DCI{Slot: 1, Format: xcal.DCI11, MCS: 22, RBs: 245}
	_ = w.WriteDCI(&d)
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("XCOL5GMB"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := NewScanner(BytesReaderAt(data), int64(len(data)))
		if err != nil {
			return
		}
		for i := 0; i < 1000; i++ {
			if _, err := s.Next(); err == io.EOF {
				break
			} else if err != nil {
				return
			}
		}
		_ = s.AuxFrames(func(xcal.FrameType, uint64, []byte) error { return nil })
	})
}
