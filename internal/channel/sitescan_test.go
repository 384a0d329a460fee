package channel

import (
	"testing"
	"time"
)

// corridorConfig is a mobile 28 GHz channel on the 14-site corridor of
// kernelTrajectories.
func corridorConfig(seed int64) Config {
	cfg := kernelTrajectories()["corridor-walking"]
	cfg.Seed = seed
	return cfg
}

func mustNew(t testing.TB, cfg Config) *Channel {
	t.Helper()
	ch, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

// TestShareSiteScanGrouping pins the grouping key: channels join only
// when the frequency, the Tx power and every site coordinate are
// bit-equal, and channels on a stationary route never join.
func TestShareSiteScanGrouping(t *testing.T) {
	base := corridorConfig(1)

	other := base
	other.Seed = 99
	other.Route = Route{Waypoints: []Point{{0, 40}, {900, 40}}, SpeedMPS: MobilityDriving}
	other.SINRBiasDB = 3
	a, b := mustNew(t, base), mustNew(t, other)
	if !b.ShareSiteScan(a) || b.scan != a.scan {
		t.Fatal("bit-equal scan inputs: want the channels grouped")
	}

	fc := base
	fc.CarrierFreqMHz = 28000.000000001
	tx := base
	tx.Deployment.TxPowerDBmPerRE = 18.5
	site := base
	site.Deployment.Sites = append([]Point(nil), base.Deployment.Sites...)
	site.Deployment.Sites[7].Y = 1e-9
	fewer := base
	fewer.Deployment.Sites = base.Deployment.Sites[:13]
	static := base
	static.Route = Stationary(Point{X: 200, Y: 25})
	for name, cfg := range map[string]Config{
		"frequency":  fc,
		"tx-power":   tx,
		"site-coord": site,
		"site-count": fewer,
		"stationary": static,
	} {
		t.Run(name, func(t *testing.T) {
			c := mustNew(t, cfg)
			if c.ShareSiteScan(a) {
				t.Errorf("%s differs: channel joined the group", name)
			}
			if a2 := mustNew(t, base); a2.ShareSiteScan(c) {
				t.Errorf("%s differs: group joined the channel", name)
			}
			if c.scan != &c.ownScan {
				t.Errorf("%s differs: refused channel lost its own scan", name)
			}
		})
	}

	// Two stationary channels with equal inputs still never group: their
	// scan is a construction-time constant.
	s1, s2 := mustNew(t, static), mustNew(t, static)
	if s2.ShareSiteScan(s1) {
		t.Error("stationary channels grouped")
	}
}

// TestSharedSiteScanLockstep steps a group of co-sited channels — with
// different seeds, speeds and slot durations, so the shared memo sees
// both hits and misses — against the reference implementation, which
// scans every slot from scratch, bit for bit.
func TestSharedSiteScanLockstep(t *testing.T) {
	const slots = 50_000
	cfgs := []Config{corridorConfig(1), corridorConfig(2), corridorConfig(3), corridorConfig(4)}
	cfgs[2].SlotDuration = 250 * time.Microsecond
	cfgs[3].Route.SpeedMPS = MobilityDriving
	shared := make([]*Channel, len(cfgs))
	refs := make([]*referenceChannel, len(cfgs))
	for i, cfg := range cfgs {
		shared[i], refs[i] = mustNew(t, cfg), newReferenceChannel(t, cfg)
		if i > 0 && !shared[i].ShareSiteScan(shared[0]) {
			t.Fatalf("channel %d refused the group", i)
		}
	}
	for s := 0; s < slots; s++ {
		for i := range cfgs {
			got, want := shared[i].Step(), refs[i].step()
			if !samplesBitIdentical(got, want) {
				t.Fatalf("slot %d channel %d: shared %+v != reference %+v", s, i, got, want)
			}
		}
	}
}

// TestSharedChannelStepAllocs pins a grouped channel's slot at zero
// allocations, on both memo hits and misses.
func TestSharedChannelStepAllocs(t *testing.T) {
	a, b := mustNew(t, corridorConfig(1)), mustNew(t, corridorConfig(2))
	if !b.ShareSiteScan(a) {
		t.Fatal("channels refused the group")
	}
	for i := 0; i < 1000; i++ {
		a.Step()
		b.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		sinkSample = a.Step() // miss: a new position
		sinkSample = b.Step() // hit: the same position
	})
	if allocs > 0 {
		t.Errorf("shared Channel.Step allocates %.2f objects/slot pair, want 0", allocs)
	}
}
