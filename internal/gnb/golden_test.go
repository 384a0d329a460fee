package gnb

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"github.com/midband5g/midband/internal/channel"
	"github.com/midband5g/midband/internal/fault"
)

// The lockstep tests only prove that the batch and scalar steppers agree
// with each other. The digests below pin what both of them produce: a
// change that moves both together still fails here. Regenerate them only
// for a deliberate model change, and say so in the change log.

const goldenSlots = 20_000

// slotDigest folds one slot into h: every alloc field (floats by their
// bits) and then every UE's PF served rate and the cell's load EMA.
func slotDigest(h hash.Hash, res CellSlot, served func(int) float64, n int, loadEMA float64) {
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(res.Slot))
	put(uint64(res.Time))
	put(uint64(len(res.Allocs)))
	for _, a := range res.Allocs {
		put(uint64(a.UE))
		put(math.Float64bits(a.SINRdB))
		put(uint64(a.CQI))
		al := a.Alloc
		put(uint64(al.RBs))
		put(uint64(al.REs))
		put(uint64(al.Table))
		put(uint64(al.MCS))
		put(uint64(al.Rank))
		put(uint64(al.TBSBits))
		put(uint64(al.HARQRetx))
		ack := uint64(0)
		if al.ACK {
			ack = 1
		}
		put(ack)
		put(uint64(al.DeliveredBits))
	}
	for i := 0; i < n; i++ {
		put(math.Float64bits(served(i)))
	}
	put(math.Float64bits(loadEMA))
}

// goldenCase is one pinned cell configuration.
type goldenCase struct {
	name string
	cfg  func(t *testing.T) CellConfig
	want string // hex SHA-256 over goldenSlots slots
}

func goldenContentionCases() []goldenCase {
	ues := []channel.Point{{X: 0, Y: 45}, {X: 0, Y: 90}, {X: 0, Y: 117}, {X: 0, Y: 150}}
	mix := []UETraffic{{OfferedMbps: 20}, {}, {OfferedMbps: 5}, {OfferedMbps: 60}}
	variant := func(pol SchedulerPolicy, kind string) func(t *testing.T) CellConfig {
		return func(t *testing.T) CellConfig {
			cfg := contentionConfig(t, pol, ues)
			switch kind {
			case "finite-mix":
				cfg.Traffic = mix
			case "blackout":
				cfg.Traffic = mix
				cfg.Carrier.Channel.Fault = &fault.Blackout{
					ProbPerSlot: 0.002, DurationSlots: 60, DepthDB: 50, Seed: 41,
				}
			}
			return cfg
		}
	}
	want := map[string]string{
		"equal-share/full-buffer":       "3f4511d2500c3d867e4e1efe110af5fd5bbbd5af5da65926ec86e34204c0c529",
		"equal-share/finite-mix":        "c196784ac1582a490dcb4b50ca08b97e6cd3f997910e994e957ab40e3e686108",
		"equal-share/blackout":          "78ce50c6696ec8da26d01b68256e7f77cbc4eb20d2629433a21ff5c27e32e64a",
		"proportional-fair/full-buffer": "2db9a941e50b569a4170331dd3a9700481b52acfdfe726a2c08f352399ad303f",
		"proportional-fair/finite-mix":  "9a4c95bdfb22c88355e1647e4d86d78b8a2201ba8f0fbc8585f2e07e4ce99afb",
		"proportional-fair/blackout":    "50c5be4514d99c9432dc13ea74132134956435f707c0e46732924818667a0872",
		"max-rate/full-buffer":          "d083bc97f3c296bb8b666bb1409605865046e26306b311c4f24b1355acbae92b",
		"max-rate/finite-mix":           "380d91fd3096e9b12281750d49ca42bd8c41f5c9e349dc147a517465bbaec5bc",
		"max-rate/blackout":             "84e2e51cd2fd332bcbb9193e2567f9b783d0e11da380a65db39fd32e4d77d07a",
		"round-robin/full-buffer":       "6a2d4b9270c48b934e125fda20795e3a47e3dfb3c02ebb90da1abdf11cfeff44",
		"round-robin/finite-mix":        "3261d7bd8ffc4480303033c11903712582b2aedaf33cc2bcbb54f95f5dcd27cf",
		"round-robin/blackout":          "77c211aca0f12e192a74f4871247a5c4bf7e925eb54b6a643a390c329515cbea",
	}
	var cases []goldenCase
	for _, pol := range lockstepPolicies {
		for _, kind := range []string{"full-buffer", "finite-mix", "blackout"} {
			name := pol.String() + "/" + kind
			cases = append(cases, goldenCase{name: name, cfg: variant(pol, kind), want: want[name]})
		}
	}
	return cases
}

// TestCellGoldenDigestContention pins the contention model's absolute
// output through both steppers.
func TestCellGoldenDigestContention(t *testing.T) {
	for _, gc := range goldenContentionCases() {
		t.Run(gc.name, func(t *testing.T) {
			cell, err := NewCell(gc.cfg(t))
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			for i := 0; i < goldenSlots; i++ {
				slotDigest(h, cell.Step(), cell.ServedRate, cell.NumUEs(), cell.LoadEMA())
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != gc.want {
				t.Errorf("Cell.Step digest %s, want %s", got, gc.want)
			}

			adopted, err := NewCell(gc.cfg(t))
			if err != nil {
				t.Fatal(err)
			}
			batch, err := NewCellBatch(adopted)
			if err != nil {
				t.Fatal(err)
			}
			h.Reset()
			for i := 0; i < goldenSlots; i++ {
				slotDigest(h, batch.Step(), batch.ServedRate, batch.NumUEs(), batch.LoadEMA())
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != gc.want {
				t.Errorf("CellBatch.Step digest %s, want %s", got, gc.want)
			}
		})
	}
}

// TestCellGoldenDigestShare pins the share model (the extd figure arm's
// engine) through Cell.Step.
func TestCellGoldenDigestShare(t *testing.T) {
	ues := []channel.Point{{X: 0, Y: 45}, {X: 0, Y: 90}, {X: 0, Y: 117}, {X: 0, Y: 150}}
	want := map[SchedulerPolicy]string{
		SchedulerEqualShare:       "aa58a2228b1efc3b56e9264edcef427930eb4d799207cffaee1a51467e74e898",
		SchedulerProportionalFair: "7283689893968d6456ec96625d4c7296d8e763302dda435432e14aafa91ad684",
		SchedulerMaxRate:          "9ec31dd2e5d73d83da5adde1fbfc7967a59b6a3ecb2965b1266012b562965b36",
		SchedulerRoundRobin:       "719bb1007d21a55e2a59c102181593c499d73054392e5a6a5cb0fbd797c63f60",
	}
	for _, pol := range lockstepPolicies {
		t.Run(pol.String(), func(t *testing.T) {
			cell, err := NewCell(testCellConfig(t, pol, ues))
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			for i := 0; i < goldenSlots; i++ {
				slotDigest(h, cell.Step(), cell.ServedRate, cell.NumUEs(), cell.LoadEMA())
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != want[pol] {
				t.Errorf("Cell.Step digest %s, want %s", got, want[pol])
			}
		})
	}
}
