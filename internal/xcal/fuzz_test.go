package xcal

import (
	"bytes"
	"testing"
)

// Native fuzz targets for the decoders. `go test` exercises the seed
// corpus; `go test -fuzz=FuzzDecodeSlotKPI ./internal/xcal` explores
// further.

func FuzzDecodeSlotKPI(f *testing.F) {
	k := SlotKPI{Slot: 42, RBs: 245, TBSBits: 100000, ACK: true}
	f.Add(k.AppendTo(nil))
	f.Add([]byte{})
	f.Add(make([]byte, SlotKPISize-1))
	f.Fuzz(func(t *testing.T, data []byte) {
		var out SlotKPI
		if err := DecodeSlotKPI(data, &out); err == nil {
			// A successful decode must re-encode losslessly: the frame is
			// fixed-size with zero padding and no spare flag bits, so the
			// bytes themselves must round-trip too.
			enc := out.AppendTo(nil)
			if !bytes.Equal(enc, data[:SlotKPISize]) {
				t.Fatalf("SlotKPI re-encode diverged from accepted input:\n in %x\nout %x", data[:SlotKPISize], enc)
			}
			var back SlotKPI
			if err := DecodeSlotKPI(enc, &back); err != nil {
				t.Fatalf("re-decode of valid SlotKPI failed: %v", err)
			}
			if back != out {
				t.Fatalf("SlotKPI round trip diverged: %+v vs %+v", out, back)
			}
		}
	})
}

func FuzzDecodeSIB1(f *testing.F) {
	s := SIB1{CellID: 7, Band: "n78", CarrierBandwidthRB: 245, SCSkHz: 30, TDDPattern: "DDDDDDDSUU"}
	f.Add(s.AppendTo(nil))
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		var out SIB1
		if err := DecodeSIB1(data, &out); err == nil {
			// A successful decode must re-encode losslessly.
			var back SIB1
			if err := DecodeSIB1(out.AppendTo(nil), &back); err != nil {
				t.Fatalf("re-decode of valid SIB1 failed: %v", err)
			}
			if back != out {
				t.Fatalf("SIB1 round trip diverged: %+v vs %+v", out, back)
			}
		}
	})
}

func FuzzDecodeMIB(f *testing.F) {
	m := MIB{SFN: 512, SCSkHz: 30, ControlResourceSetZero: 1}
	f.Add(m.AppendTo(nil))
	f.Add([]byte{})
	f.Add(make([]byte, mibSize-1))
	f.Fuzz(func(t *testing.T, data []byte) {
		var out MIB
		if err := DecodeMIB(data, &out); err == nil {
			// A successful decode must re-encode losslessly.
			var back MIB
			if err := DecodeMIB(out.AppendTo(nil), &back); err != nil {
				t.Fatalf("re-decode of valid MIB failed: %v", err)
			}
			if back != out {
				t.Fatalf("MIB round trip diverged: %+v vs %+v", out, back)
			}
		}
	})
}

func FuzzDecodeDCI(f *testing.F) {
	d := DCI{Slot: 42, Format: DCI11, Carrier: 1, MCS: 22, RBs: 245, Rank: 4, HARQProcess: 7, NDI: true}
	f.Add(d.AppendTo(nil))
	f.Add([]byte{})
	f.Add(make([]byte, dciSize-1))
	f.Fuzz(func(t *testing.T, data []byte) {
		var out DCI
		if err := DecodeDCI(data, &out); err == nil {
			// The HARQProcess/NDI bit-packing must survive a round trip.
			var back DCI
			if err := DecodeDCI(out.AppendTo(nil), &back); err != nil {
				t.Fatalf("re-decode of valid DCI failed: %v", err)
			}
			if back != out {
				t.Fatalf("DCI round trip diverged: %+v vs %+v", out, back)
			}
		}
	})
}

func FuzzTraceReader(f *testing.F) {
	k := SlotKPI{Slot: 1}
	f.Add(appendFrame(rowHeader(f, Meta{Operator: "V_Sp"}), FrameKPI, k.AppendTo(nil)))
	f.Add([]byte("XCAL5GMB"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i := 0; i < 100; i++ {
			if _, err := r.Next(); err != nil {
				return
			}
		}
	})
}
