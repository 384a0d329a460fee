package net5g_test

import (
	"math"
	"testing"

	"github.com/midband5g/midband/internal/channel"
	"github.com/midband5g/midband/internal/gnb"
	"github.com/midband5g/midband/internal/net5g"
	"github.com/midband5g/midband/internal/operators"
)

// TestLinkSharedSiteScanLockstep steps the §7 links, whose co-sited
// carriers share one site scan per slot, against the same carrier
// configurations stepped standalone through gnb.NewCarrier, where
// nothing is shared: every ticked carrier's Sample must match bit for
// bit. Tmb_US mixes 0.5 ms (n41) and 1 ms (n25) carriers in one link.
func TestLinkSharedSiteScanLockstep(t *testing.T) {
	const steps = 20_000
	cases := []struct {
		acr string
		sc  operators.Scenario
		// groups[i] is the index of the carrier whose scan carrier i
		// shares (i itself for a group's first carrier).
		groups []int
	}{
		{"Vzw_mmW", operators.Walking(7), []int{0, 0, 0, 0}},
		{"Vzw_mmW", operators.Driving(7), []int{0, 0, 0, 0}},
		{"Tmb_US", operators.Walking(7), []int{0, 0, 2, 2}},
	}
	for _, tc := range cases {
		t.Run(tc.acr+"/"+tc.sc.Name, func(t *testing.T) {
			op, err := operators.ByAcronym(tc.acr)
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := op.LinkConfig(tc.sc)
			if err != nil {
				t.Fatal(err)
			}
			checkGroups(t, cfg.Carriers, tc.groups)
			link, err := net5g.NewLink(cfg)
			if err != nil {
				t.Fatal(err)
			}
			alone := make([]*gnb.Carrier, len(cfg.Carriers))
			for i, cc := range cfg.Carriers {
				if alone[i], err = gnb.NewCarrier(cc); err != nil {
					t.Fatal(err)
				}
			}
			dl := gnb.Demand{Active: true, Share: 1}
			ul := gnb.Demand{Share: 1}
			var res net5g.StepResult
			var want gnb.SlotResult
			ticks := make([]int, len(alone))
			for s := 0; s < steps; s++ {
				link.StepInto(&res, net5g.Demand{DL: true})
				for i, c := range alone {
					if !res.NRTicked[i] {
						continue
					}
					ticks[i]++
					c.StepInto(&want, dl, ul)
					if got := res.NR[i].Sample; !sampleBitsEqual(got, want.Sample) {
						t.Fatalf("step %d carrier %d: link %+v != standalone %+v", s, i, got, want.Sample)
					}
				}
			}
			for i, n := range ticks {
				if n == 0 {
					t.Errorf("carrier %d never ticked", i)
				}
			}
		})
	}
}

// checkGroups asserts which carriers are co-sited, on throwaway
// carriers so the lockstep's standalone ones stay unshared.
func checkGroups(t *testing.T, ccs []gnb.CarrierConfig, groups []int) {
	t.Helper()
	cs := make([]*gnb.Carrier, len(ccs))
	for i, cc := range ccs {
		c, err := gnb.NewCarrier(cc)
		if err != nil {
			t.Fatal(err)
		}
		cs[i] = c
	}
	for i, g := range groups {
		for j := 0; j < i; j++ {
			if got, want := cs[i].ShareSiteScan(cs[j]), groups[j] == g; got != want {
				t.Errorf("carrier %d with carrier %d: shared %v, want %v", i, j, got, want)
			}
		}
	}
}

func sampleBitsEqual(a, b channel.Sample) bool {
	return math.Float64bits(a.Pos.X) == math.Float64bits(b.Pos.X) &&
		math.Float64bits(a.Pos.Y) == math.Float64bits(b.Pos.Y) &&
		a.ServingCell == b.ServingCell &&
		math.Float64bits(a.RSRPdBm) == math.Float64bits(b.RSRPdBm) &&
		math.Float64bits(a.RSRQdB) == math.Float64bits(b.RSRQdB) &&
		math.Float64bits(a.SINRdB) == math.Float64bits(b.SINRdB) &&
		a.LOS == b.LOS &&
		a.Outage == b.Outage
}
