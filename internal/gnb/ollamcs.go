package gnb

import (
	"math"
	"sync"

	"github.com/midband5g/midband/internal/fmath"
	"github.com/midband5g/midband/internal/phy"
)

// OLLA→MCS without the pow. DL link adaptation picks
// HighestMCSForEfficiency(eff · 10^(olla/10)): the CQI's spectral
// efficiency, shifted by the outer-loop offset, capped by the MCS rows.
// The linear factor feeds nothing but that MCS index, so the choice is a
// step function of olla alone, one per (CQI table, MCS table, CQI): MCS k
// is reached once olla ≥ 10·log10(max(E_0..E_k)/eff), where E_i is MCS
// row i's efficiency (the running maximum mirrors the scan, which stops
// at the first row above its target). Those thresholds are tabulated
// once per table pair, and a pick is a binary search of olla
// against them. When olla lies within ollaGuardDB of the deciding
// threshold — or is not a finite value in range — the exact pow
// expression decides instead, so the MCS is bit-identical to computing
// it directly (the same bounds-then-fallback pattern as blerAck).

const (
	// ollaGuardDB dwarfs the ~1e-14 dB rounding of both the threshold
	// (a division and a log10) and the exact path (a Pow10, a product
	// and the comparisons of the scan).
	ollaGuardDB = 1e-9
	// ollaSpanDB bounds the offsets the table answers; the OLLA clamp
	// keeps every real offset inside [−6, 3] dB.
	ollaSpanDB = 100
	// ollaThrLen holds MCS table 1's 28 thresholds (rows 1..28), the −∞
	// sentinel at 0 and +∞ padding to a power of two for the search.
	ollaThrLen = 32
)

// ollaMCSTable is the OLLA→MCS step function of one (CQI table, MCS
// table) pair.
type ollaMCSTable struct {
	mcsTable phy.MCSTable
	// eff is the CQI table's efficiency column; 0 where the CQI has no
	// row (CQI 0, or an unknown CQI table).
	eff [phy.MaxCQI + 1]float64
	// thr[cqi][k], for k = 1..MaxIndex, is the offset (dB) at which MCS
	// k becomes eligible. thr[cqi][0] is −∞ and the rest +∞, so the
	// index of the last threshold ≤ olla is the MCS.
	thr [phy.MaxCQI + 1][ollaThrLen]float64
}

// ollaMCSTables holds the four table pairs, indexed [CQI table][MCS
// table], each built on its first use (most runs use one or two pairs,
// and process start-up stays free of the build); carriers and cells
// point into it.
var (
	ollaMCSTables [3][3]ollaMCSTable
	ollaMCSBuilt  [3][3]sync.Once
)

// ollaMCSNone answers every unknown table pair: every CQI lacks a row,
// as the CSI table's Lookup would report.
var ollaMCSNone ollaMCSTable

func buildOLLAMCS(t *ollaMCSTable, ct phy.CQITable, mt phy.MCSTable) {
	t.mcsTable = mt
	maxIdx := int(mt.MaxIndex())
	for q := phy.CQI(1); q <= phy.MaxCQI; q++ {
		row, err := ct.Lookup(q)
		if err != nil {
			continue
		}
		t.eff[q] = row.Efficiency
		thr := &t.thr[q]
		thr[0] = math.Inf(-1)
		for k := 1; k < ollaThrLen; k++ {
			thr[k] = math.Inf(1)
		}
		top := 0.0
		for k := 0; k <= maxIdx; k++ {
			m, err := mt.Lookup(uint8(k))
			if err != nil {
				panic(err) // k ≤ MaxIndex: every row exists
			}
			top = math.Max(top, m.SpectralEfficiency())
			if k > 0 {
				thr[k] = 10 * math.Log10(top/row.Efficiency)
			}
		}
	}
}

// ollaStep is the outer loop's update after one DL transport block: up
// by 0.05·T/(1−T) dB on an ACK, down 0.05 dB on a NACK, which settles
// the BLER at the target T, clamped to [−6, 3] dB. Every OLLA offset
// the table sees starts at 0 and moves only through this step. The
// clamp's two comparisons return what math.Max(−6, math.Min(3, x))
// does for every x, NaN and −0 included, without the calls.
//
//detlint:zeroalloc
func ollaStep(olla float64, ack bool, targetBLER float64) float64 {
	if ack {
		olla += 0.05 * targetBLER / (1 - targetBLER)
	} else {
		olla -= 0.05
	}
	if olla > 3 {
		return 3
	}
	if olla < -6 {
		return -6
	}
	return olla
}

// ollaMCSFor returns the table for a CSI table and MCS table pair,
// building it on the pair's first use.
func ollaMCSFor(ct phy.CQITable, mt phy.MCSTable) *ollaMCSTable {
	if ct < 1 || int(ct) >= len(ollaMCSTables) || mt < 1 || int(mt) >= len(ollaMCSTables[0]) {
		return &ollaMCSNone
	}
	t := &ollaMCSTables[ct][mt]
	ollaMCSBuilt[ct][mt].Do(func() { buildOLLAMCS(t, ct, mt) })
	return t
}

// mcs returns HighestMCSForEfficiency(eff[cqi] · 10^(olla/10)) bit for
// bit. ok is false when the CQI has no row: CQI 0, above MaxCQI, or an
// unknown CQI table, where the CSI table's Lookup fails.
//
//detlint:zeroalloc
func (t *ollaMCSTable) mcs(cqi phy.CQI, olla float64) (uint8, bool) {
	if cqi > phy.MaxCQI || t.eff[cqi] == 0 {
		return 0, false
	}
	if olla > -ollaSpanDB && olla < ollaSpanDB {
		thr := &t.thr[cqi]
		k := 0
		for step := ollaThrLen / 2; step > 0; step >>= 1 {
			if thr[k+step] <= olla {
				k += step
			}
		}
		// k ≤ ollaThrLen−2: thr's last entry is +∞ and olla is finite.
		if (k == 0 || olla-thr[k] >= ollaGuardDB) && thr[k+1]-olla > ollaGuardDB {
			return uint8(k), true
		}
	}
	return t.mcsTable.HighestMCSForEfficiency(t.eff[cqi] * fmath.Pow10(olla/10)), true
}
