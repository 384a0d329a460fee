package gnb

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/midband5g/midband/internal/fmath"
	"github.com/midband5g/midband/internal/phy"
)

var (
	ollaCQITables = []phy.CQITable{phy.CQITable64QAM, phy.CQITable256QAM}
	ollaMCSTabs   = []phy.MCSTable{phy.MCSTable64QAM, phy.MCSTable256QAM}
)

// ollaMCSRef is the expression the threshold table replaces: the CSI
// row's efficiency times the OLLA offset as a linear factor, mapped to
// the highest MCS that fits.
func ollaMCSRef(ct phy.CQITable, mt phy.MCSTable, cqi phy.CQI, olla float64) uint8 {
	row, err := ct.Lookup(cqi)
	if err != nil {
		panic(err)
	}
	return mt.HighestMCSForEfficiency(row.Efficiency * fmath.Pow10(olla/10))
}

// checkOLLAMCS fails unless the table and the reference pick the same
// MCS for every (CQI table, MCS table, CQI) at olla.
func checkOLLAMCS(tb testing.TB, olla float64) {
	tb.Helper()
	for _, ct := range ollaCQITables {
		for _, mt := range ollaMCSTabs {
			tab := ollaMCSFor(ct, mt)
			for q := phy.CQI(1); q <= phy.MaxCQI; q++ {
				got, ok := tab.mcs(q, olla)
				if want := ollaMCSRef(ct, mt, q, olla); !ok || got != want {
					tb.Fatalf("%v/%v CQI %d olla %v (%#x): table MCS %d (ok=%v), pow expression %d",
						ct, mt, q, olla, math.Float64bits(olla), got, ok, want)
				}
			}
		}
	}
}

// TestOLLAMCSThresholds probes every threshold of every table, ±8 ulps
// and at both edges of its guard band, where a wrong threshold or a
// too-narrow guard would first show.
func TestOLLAMCSThresholds(t *testing.T) {
	probes := 0
	for _, ct := range ollaCQITables {
		for _, mt := range ollaMCSTabs {
			tab := ollaMCSFor(ct, mt)
			for q := phy.CQI(1); q <= phy.MaxCQI; q++ {
				for k := 1; k <= int(mt.MaxIndex()); k++ {
					th := tab.thr[q][k]
					for _, c := range []float64{th, th - ollaGuardDB, th + ollaGuardDB} {
						lo, hi := c, c
						checkOLLAMCS(t, c)
						for i := 0; i < 8; i++ {
							lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
							checkOLLAMCS(t, lo)
							checkOLLAMCS(t, hi)
						}
						probes += 17
					}
				}
			}
		}
	}
	t.Logf("%d threshold probes × 60 (table pair, CQI) picks", probes)
}

// TestOLLAMCSLattice checks the offsets the outer loop reaches from 0
// at the default 10% BLER target. The steps are commensurate (a NACK is
// nine ACKs), so the offsets form the 0.05/9 dB lattice over the
// [−6, 3] clamp, plus rounding variants that differ by the path taken.
// A breadth-first walk of the exact update ollaStep collects every
// value within depth steps (enough to reach both clamps), and each must
// pick the pow expression's MCS. None may sit in a guard band either:
// the fallback would then fire on every pick at that offset.
func TestOLLAMCSLattice(t *testing.T) {
	const target = 0.10
	depth := 600 // 540 ACKs reach 3 dB from 0, 120 NACKs reach −6 dB
	if testing.Short() {
		depth = 150
	}
	seen := map[uint64]bool{0: true}
	vals, frontier := []float64{0}, []float64{0}
	for d := 0; d < depth; d++ {
		var next []float64
		for _, x := range frontier {
			for _, ack := range []bool{true, false} {
				y := ollaStep(x, ack, target)
				if b := math.Float64bits(y); !seen[b] {
					seen[b] = true
					next = append(next, y)
				}
			}
		}
		vals = append(vals, next...)
		frontier = next
	}
	var thr []float64 // every threshold of every table, sorted
	for _, ct := range ollaCQITables {
		for _, mt := range ollaMCSTabs {
			tab := ollaMCSFor(ct, mt)
			for q := phy.CQI(1); q <= phy.MaxCQI; q++ {
				thr = append(thr, tab.thr[q][1:mt.MaxIndex()+1]...)
			}
		}
	}
	sort.Float64s(thr)
	minGap := math.Inf(1)
	for _, olla := range vals {
		checkOLLAMCS(t, olla)
		i := sort.SearchFloat64s(thr, olla)
		for _, j := range []int{i - 1, i} {
			if j >= 0 && j < len(thr) && math.Abs(olla-thr[j]) < minGap {
				minGap = math.Abs(olla - thr[j])
			}
		}
	}
	if minGap <= ollaGuardDB {
		t.Errorf("a reachable OLLA offset lies %g dB from a threshold, inside the %g dB guard band", minGap, ollaGuardDB)
	}
	t.Logf("%d reachable offsets within %d steps; the closest lies %.3g dB from a threshold", len(vals), depth, minGap)
}

// TestOLLAMCSRandom draws 1M offsets over and beyond the clamp range.
func TestOLLAMCSRandom(t *testing.T) {
	n := 1_000_000
	if testing.Short() {
		n = 50_000
	}
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < n; i++ {
		ct := ollaCQITables[rng.Intn(2)]
		mt := ollaMCSTabs[rng.Intn(2)]
		q := phy.CQI(1 + rng.Intn(int(phy.MaxCQI)))
		olla := -10 + 15*rng.Float64()
		got, ok := ollaMCSFor(ct, mt).mcs(q, olla)
		if want := ollaMCSRef(ct, mt, q, olla); !ok || got != want {
			t.Fatalf("%v/%v CQI %d olla %v: table MCS %d (ok=%v), pow expression %d", ct, mt, q, olla, got, ok, want)
		}
	}
}

// TestOLLAMCSRejects covers the CQIs without a row, where the CSI
// table's Lookup fails, and offsets outside the table's span or not
// finite, which take the exact expression.
func TestOLLAMCSRejects(t *testing.T) {
	tab := ollaMCSFor(phy.CQITable256QAM, phy.MCSTable256QAM)
	for _, q := range []phy.CQI{0, phy.MaxCQI + 1, 255} {
		if _, ok := tab.mcs(q, 0); ok {
			t.Errorf("CQI %d: ok, want no row", q)
		}
	}
	if _, ok := ollaMCSFor(0, phy.MCSTable256QAM).mcs(5, 0); ok {
		t.Error("unknown CQI table: ok, want no row")
	}
	if _, ok := ollaMCSFor(phy.CQITable256QAM, 9).mcs(5, 0); ok {
		t.Error("unknown MCS table: ok, want no row")
	}
	for _, olla := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -ollaSpanDB, ollaSpanDB, 1e300, -1e300} {
		checkOLLAMCS(t, olla)
	}
}

// FuzzOLLAMCS checks the table against the pow expression at arbitrary
// offsets, CQIs and table pairs.
func FuzzOLLAMCS(f *testing.F) {
	for _, olla := range []float64{0, -6, 3, 0.05 / 9, -0.05, 1.234567, math.Inf(1), math.NaN()} {
		f.Add(olla, uint8(7), false, true)
	}
	f.Fuzz(func(t *testing.T, olla float64, cqi uint8, cqi256, mcs256 bool) {
		ct, mt := phy.CQITable64QAM, phy.MCSTable64QAM
		if cqi256 {
			ct = phy.CQITable256QAM
		}
		if mcs256 {
			mt = phy.MCSTable256QAM
		}
		q := 1 + phy.CQI(cqi)%phy.MaxCQI
		got, ok := ollaMCSFor(ct, mt).mcs(q, olla)
		if want := ollaMCSRef(ct, mt, q, olla); !ok || got != want {
			t.Fatalf("%v/%v CQI %d olla %v (%#x): table MCS %d (ok=%v), pow expression %d",
				ct, mt, q, olla, math.Float64bits(olla), got, ok, want)
		}
	})
}

// TestOLLAStepClamp pins ollaStep's clamp to the math.Max/math.Min
// expression it replaced, at and around both bounds and at the values
// where those functions have special cases.
func TestOLLAStepClamp(t *testing.T) {
	clamp := func(x float64) float64 { return math.Max(-6, math.Min(3, x)) }
	xs := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -1e300}
	for _, b := range []float64{-6, 3} {
		lo, hi := b, b
		for i := 0; i < 4; i++ {
			xs = append(xs, lo, hi)
			lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
		}
	}
	target := 0.1 // a variable, so the step rounds as it does at run time
	for _, x := range xs {
		for _, ack := range []bool{true, false} {
			y := x
			if ack {
				y += 0.05 * target / (1 - target)
			} else {
				y -= 0.05
			}
			got, want := ollaStep(x, ack, target), clamp(y)
			if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Errorf("ollaStep(%v, %v) = %v, clamp expression %v", x, ack, got, want)
			}
		}
	}
}
