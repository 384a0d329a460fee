package gnb

import (
	"math/rand"
	"testing"
)

// pfRankRef is the ranking rankPF replaced: the candidates in ascending
// UE index, co-sorted by a stable insertion sort on descending metric.
func pfRankRef(ss []pfScore) []int {
	ss = append([]pfScore(nil), ss...)
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && ss[j].metric > ss[j-1].metric; j-- {
			ss[j], ss[j-1] = ss[j-1], ss[j]
		}
	}
	idx := make([]int, len(ss))
	for k, s := range ss {
		idx[k] = s.idx
	}
	return idx
}

// rankCell is a Cell carrying only the state rankPF reads and writes.
func rankCell(n int) *Cell {
	c := &Cell{
		ready:     make([]bool, n),
		scheduled: make([]bool, n),
		pfMetric:  make([]float64, n),
		scores:    make([]pfScore, 0, n),
		mergeBuf:  make([]pfScore, n),
		rank:      make([]int, n),
	}
	for i := range c.rank {
		c.rank[i] = i
	}
	return c
}

// TestPFRankMatchesInsertionSort drives rankPF over evolving slots —
// metrics drifting as the PF window moves them, jumping as CQI reports
// land, and drawn from a few levels so ties are common — and checks each
// slot's grant order against the stable insertion sort it replaced,
// and that the warm-start rank stays a permutation led by that order.
func TestPFRankMatchesInsertionSort(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(140)
		if trial < 20 {
			n = trial // every size through two merge passes
		}
		levels := rng.Intn(6) // 0: continuous metrics; else that many levels
		draw := func() float64 {
			if levels == 0 {
				return rng.Float64() * 8
			}
			return 0.5 * float64(rng.Intn(levels))
		}
		c := rankCell(n)
		for i := range c.pfMetric {
			c.pfMetric[i] = draw()
		}
		for slot := 0; slot < 30; slot++ {
			var want []pfScore
			for i := 0; i < n; i++ {
				c.ready[i] = rng.Intn(10) > 0
				c.scheduled[i] = rng.Intn(10) == 0
				switch r := rng.Intn(10); {
				case r == 0:
					c.pfMetric[i] = draw()
				case r < 4 && levels == 0:
					c.pfMetric[i] *= 1 + 0.02*(rng.Float64()-0.5)
				}
				if c.ready[i] && !c.scheduled[i] {
					want = append(want, pfScore{i, c.pfMetric[i]})
				}
			}
			ref := pfRankRef(want)
			got := c.rankPF()
			if len(got) != len(ref) {
				t.Fatalf("trial %d slot %d: %d candidates, want %d", trial, slot, len(got), len(ref))
			}
			for k := range ref {
				if got[k].idx != ref[k] {
					t.Fatalf("trial %d (n=%d, levels=%d) slot %d: rank %d is UE %d, insertion sort has UE %d",
						trial, n, levels, slot, k, got[k].idx, ref[k])
				}
			}
			seen := make([]bool, n)
			for k, i := range c.rank {
				if seen[i] {
					t.Fatalf("trial %d slot %d: UE %d twice in the warm-start rank", trial, slot, i)
				}
				seen[i] = true
				if k < len(ref) && i != ref[k] {
					t.Fatalf("trial %d slot %d: warm-start rank[%d] = %d, want grant-order UE %d", trial, slot, k, i, ref[k])
				}
			}
		}
	}
}
