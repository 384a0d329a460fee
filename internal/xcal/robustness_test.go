package xcal

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
	"time"
)

// TestReaderNeverPanicsOnCorruption feeds the reader truncations and random
// byte flips of a valid trace; it must return errors (or clean EOF), never
// panic — the property a trace inspector needs against damaged captures.
func TestReaderNeverPanicsOnCorruption(t *testing.T) {
	valid := rowHeader(t, Meta{Operator: "V_Sp", SlotDuration: 500 * time.Microsecond})
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 50; i++ {
		k := randomKPI(rng)
		valid = appendFrame(valid, FrameKPI, k.AppendTo(nil))
	}
	sib := SIB1{CellID: 1, Band: "n78", CarrierBandwidthRB: 245, SCSkHz: 30, TDDPattern: "DDDSU"}
	valid = appendFrame(valid, FrameSIB1, sib.AppendTo(nil))

	drain := func(data []byte) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("reader panicked: %v", r)
			}
		}()
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return // header rejected: fine
		}
		for i := 0; i < 1000; i++ {
			if _, err := r.Next(); err != nil {
				return // io.EOF or a decode error: fine
			}
		}
	}

	// Truncations at every prefix length (sampled).
	for n := 0; n < len(valid); n += 7 {
		drain(valid[:n])
	}
	// Random single-byte corruptions.
	for trial := 0; trial < 300; trial++ {
		corrupted := append([]byte(nil), valid...)
		corrupted[rng.Intn(len(corrupted))] ^= byte(1 + rng.Intn(255))
		drain(corrupted)
	}
	// Random garbage.
	for trial := 0; trial < 100; trial++ {
		garbage := make([]byte, rng.Intn(200))
		rng.Read(garbage)
		drain(garbage)
	}
}

// TestFrameSizeLimit ensures oversized frames are rejected rather than
// allocated.
func TestFrameSizeLimit(t *testing.T) {
	// Append a frame header claiming 16 MiB.
	trace := append(rowHeader(t, Meta{}), byte(FrameKPI), 0, 0, 0, 1)
	r, err := NewReader(bytes.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil || err == io.EOF {
		t.Error("oversized frame should produce a hard error")
	}
}
