package xcol

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"github.com/midband5g/midband/internal/xcal"
)

func testMeta() xcal.Meta {
	return xcal.Meta{
		Operator:     "Verizon",
		Country:      "US",
		City:         "Chicago",
		CarrierLabel: "n77 100 MHz",
		Scenario:     "driving",
		SlotDuration: 500 * time.Microsecond,
		Start:        time.Unix(0, 0).UTC(),
	}
}

// genKPIs produces a deterministic, realistically-shaped KPI stream:
// monotone slots, cycling carriers, slowly-moving scheduler fields and
// correlated radio floats — the texture the column encodings are tuned
// for.
func genKPIs(n int, seed int64) []xcal.SlotKPI {
	rng := rand.New(rand.NewSource(seed))
	out := make([]xcal.SlotKPI, n)
	sinr, rsrp := float32(18.0), float32(-85.0)
	cqi, mcs := uint8(11), uint8(19)
	for i := range out {
		if rng.Intn(64) == 0 {
			sinr += float32(rng.NormFloat64())
			rsrp += float32(rng.NormFloat64()) * 0.5
		}
		if rng.Intn(128) == 0 {
			cqi = uint8(3 + rng.Intn(12))
			mcs = uint8(5 + rng.Intn(23))
		}
		slot := int64(i / 3)
		carrier := uint8(i % 3)
		ack := rng.Intn(10) != 0
		rbs := uint16(240 + rng.Intn(33))
		tbs := uint32(rbs) * 1600
		delivered := uint32(0)
		if ack {
			delivered = tbs
		}
		out[i] = xcal.SlotKPI{
			Slot:          slot,
			Time:          time.Duration(slot) * 500 * time.Microsecond,
			Carrier:       carrier,
			RAT:           xcal.NR,
			Dir:           xcal.DL,
			CQI:           cqi,
			MCSTable:      2,
			MCS:           mcs,
			Rank:          uint8(1 + i%2),
			HARQRetx:      uint8(rng.Intn(2)),
			ACK:           ack,
			Outage:        rng.Intn(512) == 0,
			RBs:           rbs,
			ServingCell:   77,
			REs:           uint32(rbs) * 144,
			TBSBits:       tbs,
			DeliveredBits: delivered,
			SINRdB:        sinr,
			RSRPdBm:       rsrp,
			RSRQdB:        -11.5,
			PosX:          float32(i) * 0.01,
			PosY:          20,
		}
	}
	return out
}

// writeTestTrace writes records plus a sprinkling of signaling frames
// and returns the encoded columnar trace.
func writeTestTrace(t *testing.T, records []xcal.SlotKPI, withAux bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, testMeta())
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	if withAux {
		if err := w.WriteMIB(&xcal.MIB{SFN: 1}); err != nil {
			t.Fatalf("WriteMIB: %v", err)
		}
	}
	for i := range records {
		if err := w.WriteKPI(&records[i]); err != nil {
			t.Fatalf("WriteKPI: %v", err)
		}
		if withAux && i%1000 == 500 {
			if err := w.WriteDCI(&xcal.DCI{Slot: records[i].Slot, MCS: records[i].MCS}); err != nil {
				t.Fatalf("WriteDCI: %v", err)
			}
		}
	}
	if withAux {
		if err := w.WriteEvent(xcal.Event{Time: time.Second, Kind: "stall"}); err != nil {
			t.Fatalf("WriteEvent: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := w.Records(); got != uint64(len(records)) {
		t.Fatalf("Records() = %d, want %d", got, len(records))
	}
	return buf.Bytes()
}

func scanAll(t *testing.T, data []byte) []xcal.SlotKPI {
	t.Helper()
	s, err := NewScanner(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatalf("NewScanner: %v", err)
	}
	var got []xcal.SlotKPI
	for {
		b, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		got = b.AppendRows(got)
	}
	if len(s.Corrupt()) != 0 {
		t.Fatalf("unexpected corrupt blocks: %v", s.Corrupt())
	}
	return got
}

func TestRoundTrip(t *testing.T) {
	// Sizes straddle the block boundary: partial, exact, multi-block.
	for _, n := range []int{1, 7, BlockCap - 1, BlockCap, BlockCap + 1, 3*BlockCap + 17} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			records := genKPIs(n, int64(n))
			data := writeTestTrace(t, records, true)
			got := scanAll(t, data)
			if len(got) != len(records) {
				t.Fatalf("decoded %d records, want %d", len(got), len(records))
			}
			for i := range records {
				if got[i] != records[i] {
					t.Fatalf("record %d mismatch:\n got %+v\nwant %+v", i, got[i], records[i])
				}
			}
		})
	}
}

func TestRoundTripAdversarialValues(t *testing.T) {
	// Extremes exercise the mod-2^64 delta arithmetic and float paths.
	records := []xcal.SlotKPI{
		{Slot: math.MaxInt64, Time: time.Duration(math.MinInt64), SINRdB: float32(math.Inf(1))},
		{Slot: math.MinInt64, Time: time.Duration(math.MaxInt64), RSRPdBm: float32(math.NaN())},
		{Slot: 0, REs: math.MaxUint32, RBs: math.MaxUint16, PosX: -0},
		{Slot: -1, TBSBits: 1, DeliveredBits: math.MaxUint32},
	}
	data := writeTestTrace(t, records, false)
	got := scanAll(t, data)
	if len(got) != len(records) {
		t.Fatalf("decoded %d records, want %d", len(got), len(records))
	}
	for i := range records {
		a, b := got[i], records[i]
		// NaN breaks struct equality; compare bit patterns instead.
		if math.Float32bits(a.RSRPdBm) != math.Float32bits(b.RSRPdBm) {
			t.Fatalf("record %d RSRPdBm bits mismatch", i)
		}
		a.RSRPdBm, b.RSRPdBm = 0, 0
		if a != b {
			t.Fatalf("record %d mismatch:\n got %+v\nwant %+v", i, a, b)
		}
	}
}

func TestMetaRoundTrip(t *testing.T) {
	data := writeTestTrace(t, genKPIs(10, 1), false)
	s, err := NewScanner(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatalf("NewScanner: %v", err)
	}
	if got, want := s.Meta(), testMeta(); got != want {
		t.Fatalf("Meta = %+v, want %+v", got, want)
	}
	if s.Sequential() {
		t.Fatal("well-formed trace should scan indexed")
	}
	if got, want := s.NumRecords(), uint64(10); got != want {
		t.Fatalf("NumRecords = %d, want %d", got, want)
	}
}

func TestAuxFramesReplay(t *testing.T) {
	records := genKPIs(2500, 3)
	data := writeTestTrace(t, records, true)
	s, err := NewScanner(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatalf("NewScanner: %v", err)
	}
	type frame struct {
		t   xcal.FrameType
		pos uint64
	}
	var frames []frame
	err = s.AuxFrames(func(ft xcal.FrameType, pos uint64, payload []byte) error {
		frames = append(frames, frame{ft, pos})
		return nil
	})
	if err != nil {
		t.Fatalf("AuxFrames: %v", err)
	}
	want := []frame{
		{xcal.FrameMIB, 0},
		{xcal.FrameDCI, 501},  // written after record index 500
		{xcal.FrameDCI, 1501}, // i%1000 == 500
		{xcal.FrameEvent, 2500},
	}
	if len(frames) != len(want) {
		t.Fatalf("got %d aux frames %v, want %v", len(frames), frames, want)
	}
	for i := range want {
		if frames[i] != want[i] {
			t.Fatalf("aux frame %d = %+v, want %+v", i, frames[i], want[i])
		}
	}
}

func TestProjection(t *testing.T) {
	records := genKPIs(2*BlockCap+100, 9)
	data := writeTestTrace(t, records, false)
	s, err := NewScanner(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatalf("NewScanner: %v", err)
	}
	s.SetProjection(GoodputColumns)
	i := 0
	for {
		b, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if len(b.Time) != 0 || len(b.SINRdB) != 0 {
			t.Fatal("unselected columns should be empty")
		}
		if len(b.Slot) != b.Count || len(b.DeliveredBits) != b.Count {
			t.Fatal("selected columns should be materialized")
		}
		for j := 0; j < b.Count; j++ {
			r := &records[i]
			if b.Slot[j] != r.Slot || b.Carrier[j] != r.Carrier ||
				b.MCS[j] != r.MCS || b.DeliveredBits[j] != r.DeliveredBits {
				t.Fatalf("record %d projection mismatch", i)
			}
			i++
		}
	}
	if i != len(records) {
		t.Fatalf("scanned %d records, want %d", i, len(records))
	}
}

func TestScanBlocksMatchesSerialAndWorkers(t *testing.T) {
	records := genKPIs(5*BlockCap+321, 11)
	data := writeTestTrace(t, records, true)
	serial := scanAll(t, data)

	for _, workers := range []int{1, 4} {
		var got []xcal.SlotKPI
		stats, err := ScanBlocks(context.Background(), bytes.NewReader(data), int64(len(data)),
			ScanOptions{Workers: workers}, func(b *Block) error {
				got = b.AppendRows(got)
				return nil
			})
		if err != nil {
			t.Fatalf("workers=%d: ScanBlocks: %v", workers, err)
		}
		if stats.Records != uint64(len(records)) || len(stats.Skipped) != 0 {
			t.Fatalf("workers=%d: stats = %+v", workers, stats)
		}
		if len(got) != len(serial) {
			t.Fatalf("workers=%d: %d records, want %d", workers, len(got), len(serial))
		}
		for i := range got {
			if got[i] != serial[i] {
				t.Fatalf("workers=%d: record %d differs from serial scan", workers, i)
			}
		}
	}
}

func TestScanBlocksEmitError(t *testing.T) {
	data := writeTestTrace(t, genKPIs(4*BlockCap, 5), false)
	wantErr := fmt.Errorf("stop")
	calls := 0
	_, err := ScanBlocks(context.Background(), bytes.NewReader(data), int64(len(data)),
		ScanOptions{Workers: 2}, func(b *Block) error {
			calls++
			if calls == 2 {
				return wantErr
			}
			return nil
		})
	if err == nil || err.Error() != "stop" {
		t.Fatalf("err = %v, want stop", err)
	}
	if calls != 2 {
		t.Fatalf("emit called %d times, want 2", calls)
	}
}

// auxAt is a signaling frame and the number of KPI records written
// before it.
type auxAt struct {
	t   xcal.FrameType
	pos int
}

// rowAux reads a row trace and returns its KPI records and where each
// signaling frame sits among them.
func rowAux(t *testing.T, row []byte) ([]xcal.SlotKPI, []auxAt) {
	t.Helper()
	r, err := xcal.NewReader(bytes.NewReader(row))
	if err != nil {
		t.Fatal(err)
	}
	var kpis []xcal.SlotKPI
	var aux []auxAt
	for {
		ft, err := r.Next()
		if err == io.EOF {
			return kpis, aux
		}
		if err != nil {
			t.Fatal(err)
		}
		if ft == xcal.FrameKPI {
			kpis = append(kpis, r.KPI)
		} else {
			aux = append(aux, auxAt{ft, len(kpis)})
		}
	}
}

func TestConvertRoundTrip(t *testing.T) {
	// Build a columnar trace with interleaved signaling.
	var col bytes.Buffer
	w, err := NewWriter(&col, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	var want []auxAt
	if err := w.WriteMIB(&xcal.MIB{SFN: 12, SCSkHz: 30}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteSIB1(&xcal.SIB1{CellID: 501, Band: "n77"}); err != nil {
		t.Fatal(err)
	}
	want = append(want, auxAt{xcal.FrameMIB, 0}, auxAt{xcal.FrameSIB1, 0})
	records := genKPIs(2*BlockCap+777, 21)
	for i := range records {
		if err := w.WriteKPI(&records[i]); err != nil {
			t.Fatal(err)
		}
		if i%700 == 13 {
			if err := w.WriteDCI(&xcal.DCI{Slot: records[i].Slot}); err != nil {
				t.Fatal(err)
			}
			want = append(want, auxAt{xcal.FrameDCI, i + 1})
		}
		if i == 1000 {
			if err := w.WriteEvent(xcal.Event{Time: time.Second, Kind: "chunk-request", Data: "q=7"}); err != nil {
				t.Fatal(err)
			}
			want = append(want, auxAt{xcal.FrameEvent, i + 1})
		}
	}
	if err := w.WriteEvent(xcal.Event{Time: 2 * time.Second, Kind: "session-end"}); err != nil {
		t.Fatal(err)
	}
	want = append(want, auxAt{xcal.FrameEvent, len(records)})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	var row bytes.Buffer
	n, err := ConvertColToRow(bytes.NewReader(col.Bytes()), int64(col.Len()), &row)
	if err != nil {
		t.Fatalf("ConvertColToRow: %v", err)
	}
	if n != uint64(len(records)) {
		t.Fatalf("converted %d records, want %d", n, len(records))
	}
	kpis, aux := rowAux(t, row.Bytes())
	if len(kpis) != len(records) {
		t.Fatalf("row trace holds %d KPI records, want %d", len(kpis), len(records))
	}
	for i := range kpis {
		if kpis[i] != records[i] {
			t.Fatalf("row record %d = %+v, want %+v", i, kpis[i], records[i])
		}
	}
	if fmt.Sprint(aux) != fmt.Sprint(want) {
		t.Fatalf("row signaling interleave %v, want %v", aux, want)
	}

	var back bytes.Buffer
	n, err = ConvertRowToCol(bytes.NewReader(row.Bytes()), &back)
	if err != nil {
		t.Fatalf("ConvertRowToCol: %v", err)
	}
	if n != uint64(len(records)) {
		t.Fatalf("converted back %d records, want %d", n, len(records))
	}
	if !bytes.Equal(col.Bytes(), back.Bytes()) {
		t.Fatalf("col → row → col is not byte-identical: %d vs %d bytes",
			col.Len(), back.Len())
	}
}

// countWriter counts bytes so the memory test can confirm data really
// streamed out.
type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

func TestWriterMemoryBounded(t *testing.T) {
	n := 4 << 20 // ~256 MB of row-equivalent KPI data
	if testing.Short() {
		n = 1 << 19
	}
	var sink countWriter
	w, err := NewWriter(&sink, testMeta())
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	records := genKPIs(BlockCap, 31)
	runtime.GC()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var k xcal.SlotKPI
	for i := 0; i < n; i++ {
		k = records[i%BlockCap]
		k.Slot = int64(i)
		if err := w.WriteKPI(&k); err != nil {
			t.Fatalf("WriteKPI: %v", err)
		}
		if i%8 == 0 {
			// Signaling interleave keeps the aux path exercised too.
			if err := w.WriteDCI(&xcal.DCI{Slot: k.Slot}); err != nil {
				t.Fatalf("WriteDCI: %v", err)
			}
		}
		if i%(1<<20) == 0 && i > 0 {
			runtime.GC()
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			growth := int64(m.HeapAlloc) - int64(m0.HeapAlloc)
			// O(block) bound: one block of columns, encode scratch, the
			// capped aux buffer and the index. 16 MB is an order of
			// magnitude above that and three orders below the stream.
			if growth > 16<<20 {
				t.Fatalf("heap grew by %d bytes after %d records — writer memory is not O(block)", growth, i)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if sink.n == 0 {
		t.Fatal("no bytes written")
	}
	t.Logf("wrote %d records in %d bytes (%.2f bytes/record)", n, sink.n, float64(sink.n)/float64(n))
}

func TestScannerZeroAllocSteadyState(t *testing.T) {
	data := writeTestTrace(t, genKPIs(8*BlockCap, 41), false)
	s, err := NewScanner(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatalf("NewScanner: %v", err)
	}
	scan := func() {
		s.Reset()
		for {
			_, err := s.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("Next: %v", err)
			}
		}
	}
	scan() // warm the decode buffers
	if avg := testing.AllocsPerRun(20, scan); avg != 0 {
		t.Fatalf("steady-state scan allocates %.1f times per pass, want 0", avg)
	}
}

func TestWriteAfterClose(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil { // idempotent
		t.Fatalf("second Close: %v", err)
	}
	k := xcal.SlotKPI{}
	if err := w.WriteKPI(&k); err != ErrClosed {
		t.Fatalf("WriteKPI after Close = %v, want ErrClosed", err)
	}
}

func writeFile(path string, data []byte) error { return os.WriteFile(path, data, 0o644) }

func TestDetectFormat(t *testing.T) {
	dir := t.TempDir()
	colPath := dir + "/t.xcol"
	if err := writeFile(colPath, writeTestTrace(t, genKPIs(5, 1), false)); err != nil {
		t.Fatal(err)
	}
	col := writeTestTrace(t, nil, false)
	var row bytes.Buffer
	if _, err := ConvertColToRow(bytes.NewReader(col), int64(len(col)), &row); err != nil {
		t.Fatal(err)
	}
	rowPath := dir + "/t.xcal"
	if err := writeFile(rowPath, row.Bytes()); err != nil {
		t.Fatal(err)
	}
	if f, err := DetectFormat(colPath); err != nil || f != "xcol" {
		t.Fatalf("DetectFormat(col) = %q, %v", f, err)
	}
	if f, err := DetectFormat(rowPath); err != nil || f != "xcal" {
		t.Fatalf("DetectFormat(row) = %q, %v", f, err)
	}
	junk := dir + "/junk"
	if err := writeFile(junk, []byte("not a trace at all")); err != nil {
		t.Fatal(err)
	}
	if _, err := DetectFormat(junk); err == nil {
		t.Fatal("DetectFormat(junk) should fail")
	}
}
