package gnb

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/midband5g/midband/internal/channel"
	"github.com/midband5g/midband/internal/fleet"
	"github.com/midband5g/midband/internal/obs"
	"github.com/midband5g/midband/internal/phy"
	"github.com/midband5g/midband/internal/ue"
)

// This file implements a true multi-UE cell: several UEs, each with its own
// radio channel and CSI loop, contending for the same carrier's resource
// blocks under a configurable scheduler. The single-UE Carrier with a
// `Share` knob is sufficient for most of the paper's experiments; the Cell
// is the faithful version of the §5.2 multi-user experiment (Fig. 14) and
// the substrate for scheduler ablations.

// SchedulerPolicy selects how the cell splits RBs among backlogged UEs.
type SchedulerPolicy uint8

const (
	// SchedulerEqualShare splits the RBs evenly among backlogged UEs —
	// what the paper observes ("the number of RBs allocated to each UE
	// has reduced by about 1/2").
	SchedulerEqualShare SchedulerPolicy = iota
	// SchedulerProportionalFair allocates each slot's RBs by the
	// classic PF metric (instantaneous rate / smoothed served rate),
	// splitting between the two highest-metric UEs.
	SchedulerProportionalFair
	// SchedulerMaxRate gives the whole slot to the UE with the best
	// instantaneous spectral efficiency (throughput-optimal, unfair).
	SchedulerMaxRate
	// SchedulerRoundRobin rotates whole slots over the backlogged UEs in
	// index order (time-domain TDM: equal slot share regardless of
	// channel quality).
	SchedulerRoundRobin
)

func (p SchedulerPolicy) String() string {
	switch p {
	case SchedulerProportionalFair:
		return "proportional-fair"
	case SchedulerMaxRate:
		return "max-rate"
	case SchedulerRoundRobin:
		return "round-robin"
	default:
		return "equal-share"
	}
}

// CellConfig describes a multi-UE cell.
type CellConfig struct {
	// Carrier is the shared carrier configuration; its Channel field is
	// used as the template for each UE (the route is overridden per UE).
	Carrier CarrierConfig
	// UEs are the per-UE positions (each UE gets an independent channel
	// realization at its own position).
	UEs []channel.Point
	// Policy is the RB-split policy.
	Policy SchedulerPolicy
	// PFWindowSlots is the PF averaging window (default 200 slots).
	PFWindowSlots int
	// Seed drives per-UE randomness.
	Seed int64
	// Model selects the scheduling fidelity. The zero value keeps the
	// legacy per-slot fractional-share model bit-identical to earlier
	// releases; CellModelContention enables per-UE HARQ, RLC-style
	// buffers, integer-RB grants and load-coupled interference (see
	// multiue.go).
	Model CellModel
	// Traffic optionally bounds each UE's offered load, index-matched
	// with UEs (nil, or a zero entry, is a full-buffer UE). Contention
	// model only.
	Traffic []UETraffic
	// DisableLoadCoupling keeps the statistical NeighborLoad
	// interference even when real co-UEs share the cell (ablation;
	// contention model only).
	DisableLoadCoupling bool
}

// Validate checks the configuration.
func (c CellConfig) Validate() error {
	if len(c.UEs) == 0 {
		return fmt.Errorf("gnb: cell needs at least one UE")
	}
	if c.Traffic != nil && len(c.Traffic) != len(c.UEs) {
		return fmt.Errorf("gnb: cell has %d UEs but %d traffic entries", len(c.UEs), len(c.Traffic))
	}
	if c.Model == CellModelShare && c.Traffic != nil {
		return fmt.Errorf("gnb: finite per-UE traffic requires CellModelContention (the share model is full-buffer)")
	}
	return c.Carrier.Validate()
}

// cellUE is the per-UE state inside a cell. The harq queue is used by
// the contention model only (see multiue.go). The share model's UEs get
// a full-buffer buf, on which Arrive is a no-op and Backlogged is always
// true, so the shared sense pass gates nothing and draws nothing for
// them. Scalar per-UE quantities that the schedulers scan every slot
// live in the Cell's structure-of-arrays slices instead.
type cellUE struct {
	ch   *channel.Channel
	csi  *ue.CSI
	rng  *rand.Rand
	harq []harqJob
	buf  ue.Buffer
}

// grant is one UE's share of a slot's RBs.
type grant struct {
	idx  int
	frac float64
}

// pfScore is one UE's proportional-fair metric.
type pfScore struct {
	idx    int
	metric float64
}

// Cell simulates one carrier shared by several UEs.
type Cell struct {
	cfg  CellConfig
	ues  []*cellUE
	slot int64

	// Per-UE structure-of-arrays state, index-matched with ues. The
	// schedulers read these in tight loops over the whole population, so
	// they live in parallel slices rather than inside cellUE.
	olla   []float64 // OLLA offsets (dB)
	served []float64 // PF-smoothed served rates (bits/slot)

	// Per-slot views, index-matched with ues. The stepper writes each
	// UE's channel state into sinr/outage; sense fills the rest.
	sinr   []float64
	outage []bool
	cqi    []phy.CQI
	ri     []int
	instSE []float64 // estimated instantaneous rate ∝ metric input
	ready  []bool

	// Slot-path constants, shared by all UEs (they differ only in seeds).
	slotDur  time.Duration
	csiCfg   ue.CSIConfig
	amc      amcDerived
	tbs      *phy.TBSCache
	la       *ollaMCSTable // OLLA→MCS thresholds for (CSI table, MCS table)
	dlSymTab []int         // dlSymbols per TDD-period phase (length 1 for FDD)
	// effByCQI hoists the CSI table's CQI→spectral-efficiency column so
	// the sense pass indexes a flat array instead of calling Lookup once
	// per UE per slot. Row 0, and any row whose Lookup fails, is 0.
	effByCQI [phy.MaxCQI + 1]float64

	// Per-slot scratch, reused so the steady-state loop allocates nothing.
	// order is the scheduler's working set: the UE indices eligible for a
	// grant this slot, in ascending UE index (the contention PF pass
	// rewrites it in grant order); rb is the matching integer RB split.
	order     []int
	rb        []int
	grants    []grant
	scores    []pfScore
	mergeBuf  []pfScore
	pfMetric  []float64
	servedNow []float64
	allocs    []UEAlloc
	scheduled []bool

	// rank is every UE index in the contention PF pass's last grant
	// order (candidates first), the warm start of the next slot's sort.
	rank []int

	// Round-robin cursor, and the smoothed RB utilization for load
	// coupling (contention model).
	rr      int
	loadEMA float64
}

// UEAlloc is one UE's outcome in a slot.
type UEAlloc struct {
	// UE is the index into CellConfig.UEs.
	UE int
	// Alloc is the scheduled transport block.
	Alloc Alloc
	// SINRdB is the UE's channel state this slot.
	SINRdB float64
	// CQI is the report in effect.
	CQI phy.CQI
}

// CellSlot is everything that happened in one slot.
type CellSlot struct {
	Slot   int64
	Time   time.Duration
	Allocs []UEAlloc
}

// NewCell builds the cell.
func NewCell(cfg CellConfig) (*Cell, error) {
	cfg.Carrier = cfg.Carrier.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.PFWindowSlots == 0 {
		cfg.PFWindowSlots = 200
	}
	cell := &Cell{cfg: cfg, slotDur: cfg.Carrier.Numerology.SlotDuration()}
	for i, pos := range cfg.UEs {
		chCfg := cfg.Carrier.Channel
		chCfg.Route = channel.Stationary(pos)
		chCfg.SlotDuration = cell.slotDur
		chCfg.Seed = fleet.SplitSeed(cfg.Seed, "gnb/cell/channel", i)
		ch, err := channel.New(chCfg)
		if err != nil {
			return nil, fmt.Errorf("gnb: cell UE %d: %w", i, err)
		}
		// The cell reads only SINR and outage, on both Step and the
		// batch fallback lanes.
		ch.SetRSRQNeeded(false)
		csiCfg := cfg.Carrier.CSI
		csiCfg.Seed = fleet.SplitSeed(cfg.Seed, "gnb/cell/csi", i)
		csi, err := ue.NewCSI(csiCfg)
		if err != nil {
			return nil, fmt.Errorf("gnb: cell UE %d: %w", i, err)
		}
		offered := 0.0
		if cfg.Traffic != nil {
			offered = cfg.Traffic[i].OfferedMbps
		}
		cell.ues = append(cell.ues, &cellUE{
			ch:   ch,
			csi:  csi,
			rng:  rand.New(rand.NewSource(fleet.SplitSeed(cfg.Seed, "gnb/cell/ue", i))),
			harq: make([]harqJob, 0, 8),
			buf:  ue.NewBuffer(offered, cell.slotDur),
		})
	}
	n := len(cell.ues)
	cell.olla = make([]float64, n)
	cell.served = make([]float64, n)
	for i := range cell.served {
		cell.served[i] = 1
	}
	cell.sinr = make([]float64, n)
	cell.outage = make([]bool, n)
	cell.cqi = make([]phy.CQI, n)
	cell.ri = make([]int, n)
	cell.instSE = make([]float64, n)
	cell.ready = make([]bool, n)
	cell.csiCfg = cell.ues[0].csi.Config() // UEs differ only in seed
	cell.amc = newAMCDerived(cell.csiCfg, cfg.Carrier)
	cell.tbs = phy.NewTBSCache(cfg.Carrier.MCSTable, cfg.Carrier.DMRSPerPRB, 0)
	cell.la = ollaMCSFor(cell.csiCfg.Table, cfg.Carrier.MCSTable)
	for q := phy.CQI(1); q <= phy.MaxCQI; q++ {
		if row, err := cell.csiCfg.Table.Lookup(q); err == nil {
			cell.effByCQI[q] = row.Efficiency
		}
	}
	ccfg := cfg.Carrier
	if ccfg.FDD {
		cell.dlSymTab = []int{phy.SymbolsPerSlot - ccfg.PDCCHSymbols}
	} else {
		cell.dlSymTab = make([]int, ccfg.Pattern.Period())
		for i := range cell.dlSymTab {
			if d := ccfg.Pattern.DLSymbols(int64(i)); d > 0 {
				if s := d - ccfg.PDCCHSymbols; s >= 1 {
					cell.dlSymTab[i] = s
				}
			}
		}
	}
	cell.order = make([]int, 0, n)
	cell.rb = make([]int, 0, n)
	cell.grants = make([]grant, 0, n)
	cell.scores = make([]pfScore, 0, n)
	cell.mergeBuf = make([]pfScore, n)
	cell.pfMetric = make([]float64, n)
	cell.rank = make([]int, n)
	for i := range cell.rank {
		cell.rank[i] = i
	}
	cell.servedNow = make([]float64, n)
	cell.allocs = make([]UEAlloc, 0, n)
	cell.scheduled = make([]bool, n)
	// Observability only: record the cell's attached-UE population.
	if obs.Enabled() {
		obs.Sim.CellAttachedUEs.Set(float64(n))
	}
	return cell, nil
}

// Step advances one slot. The returned CellSlot's Allocs slice is owned
// by the Cell and valid until the next Step call. Each UE's channel
// advances, then the shared sense pass runs, then the model's scheduler:
// the share model's fractional split below, or the contention model's
// HARQ-first integer-RB grants in multiue.go. CellBatch.Step runs the
// same sense pass and contention scheduler and differs only in how the
// channels advance and how the neighbour-load push fans out.
//
//detlint:zeroalloc
func (c *Cell) Step() CellSlot {
	for i, u := range c.ues {
		s := u.ch.Step()
		c.sinr[i], c.outage[i] = s.SINRdB, s.Outage
	}
	res := c.sense()
	if c.cfg.Model == CellModelShare {
		res.Allocs = c.share(res.Slot)
		return res
	}
	var push bool
	res.Allocs, push = c.contend(res.Slot)
	if push {
		for _, u := range c.ues {
			u.ch.SetNeighborLoad(c.loadEMA)
		}
	}
	return res
}

// sense runs the per-UE half of a slot over the channel state the
// stepper has just written into sinr/outage: CSI observe, buffer
// arrival, readiness and the instantaneous-rate estimate. Each UE draws
// from its own CSI stream, so the order in which the channels advanced
// does not matter. It advances the slot counter and returns the slot's
// header.
//
//detlint:zeroalloc
func (c *Cell) sense() CellSlot {
	slot := c.slot
	c.slot++
	for i, u := range c.ues {
		u.csi.Observe(slot, c.sinr[i])
		u.buf.Arrive()
		rep, ok := u.csi.Current()
		c.cqi[i] = rep.CQI
		c.ri[i] = rep.RI
		c.instSE[i] = 0
		ready := ok && rep.CQI > 0 && !c.outage[i] && u.buf.Backlogged()
		c.ready[i] = ready
		if ready && rep.CQI <= phy.MaxCQI {
			c.instSE[i] = c.effByCQI[rep.CQI] * float64(rep.RI)
		}
	}
	return CellSlot{Slot: slot, Time: time.Duration(slot) * c.slotDur}
}

// share is the share model's scheduler: it splits the slot's RBs into
// fractions over the ready UEs and sends one jittered TB to each.
//
//detlint:zeroalloc
func (c *Cell) share(slot int64) []UEAlloc {
	dlSym := c.dlSymbols(slot)
	if dlSym == 0 {
		return nil
	}
	order := c.order[:0]
	for i, ok := range c.ready {
		if ok {
			order = append(order, i)
		}
	}
	c.order = order
	if len(order) == 0 {
		return nil
	}
	grants := c.grants[:0]
	switch c.cfg.Policy {
	case SchedulerMaxRate:
		best := order[0]
		for _, idx := range order[1:] {
			if c.instSE[idx] > c.instSE[best] {
				best = idx
			}
		}
		grants = append(grants, grant{best, 1})
	case SchedulerRoundRobin:
		// Whole-slot rotation over backlogged UEs (time-domain TDM).
		n := len(c.ues)
		for off := 0; off < n; off++ {
			cand := (c.rr + off) % n
			if c.ready[cand] {
				grants = append(grants, grant{cand, 1})
				c.rr = (cand + 1) % n
				break
			}
		}
	case SchedulerProportionalFair:
		// Split the slot between the two highest PF metrics (ties on
		// the lower UE index), proportionally to their metrics.
		first, second := pfScore{idx: -1}, pfScore{idx: -1}
		for _, idx := range order {
			s := pfScore{idx, c.instSE[idx] / c.served[idx]}
			if first.idx < 0 || pfBefore(s, first) {
				first, second = s, first
			} else if second.idx < 0 || pfBefore(s, second) {
				second = s
			}
		}
		if second.idx < 0 {
			grants = append(grants, grant{first.idx, 1})
		} else {
			total := first.metric + second.metric
			grants = append(grants,
				grant{first.idx, first.metric / total},
				grant{second.idx, second.metric / total},
			)
		}
	default: // equal share
		frac := 1 / float64(len(order))
		for _, idx := range order {
			grants = append(grants, grant{idx, frac})
		}
	}
	c.grants = grants

	allocs := c.allocs[:0]
	for _, g := range grants {
		alloc, ok := c.transmitUE(g.idx, dlSym, g.frac)
		if !ok {
			continue
		}
		allocs = append(allocs, UEAlloc{
			UE: g.idx, Alloc: alloc, SINRdB: c.sinr[g.idx], CQI: c.cqi[g.idx],
		})
	}
	c.allocs = allocs
	c.updatePFWindow(allocs)
	if len(allocs) == 0 {
		return nil // keep the no-traffic result shape of the old API
	}
	return allocs
}

// updatePFWindow folds one slot's delivered bits into every UE's
// PF-smoothed served rate (also decaying unserved UEs), clamped ≥ 1 so
// the PF metric can never divide by zero.
//
//detlint:zeroalloc
func (c *Cell) updatePFWindow(allocs []UEAlloc) {
	w := float64(c.cfg.PFWindowSlots)
	servedNow := c.servedNow
	for i := range servedNow {
		servedNow[i] = 0
	}
	for i := range allocs {
		servedNow[allocs[i].UE] = float64(allocs[i].Alloc.DeliveredBits)
	}
	served := c.served
	for i := range served {
		served[i] = (1-1/w)*served[i] + servedNow[i]/w
		if served[i] < 1 {
			served[i] = 1
		}
	}
}

func (c *Cell) dlSymbols(slot int64) int {
	return c.dlSymTab[slot%int64(len(c.dlSymTab))]
}

// transmitUE schedules one TB for a UE with the given RB fraction,
// mirroring Carrier.transmit's AMC/OLLA/BLER behaviour (without HARQ —
// multi-UE HARQ bookkeeping adds little to the Fig. 14 questions).
//
//detlint:zeroalloc
func (c *Cell) transmitUE(idx, symbols int, frac float64) (Alloc, bool) {
	cfg := &c.cfg.Carrier
	u := c.ues[idx]
	rank := c.ri[idx]
	mcs, ok := c.la.mcs(c.cqi[idx], c.olla[idx])
	if !ok {
		return Alloc{}, false
	}
	rbs := int(float64(cfg.NRB) * frac * (1 - cfg.RBJitterFrac*u.rng.Float64()))
	if rbs < 1 {
		rbs = 1
	}
	tbs, err := c.tbs.TBS(symbols, rbs, mcs, rank)
	if err != nil {
		return Alloc{}, false
	}
	// REs for the record: same DMRS clamp the cache applies internally.
	dmrs := cfg.DMRSPerPRB
	if m := phy.SubcarriersPerRB * symbols; dmrs > m {
		dmrs = m
	}
	params := phy.TBSParams{
		Symbols: symbols, DMRSPerPRB: dmrs, PRBs: rbs,
		Layers: rank,
	}
	req, err := cfg.MCSTable.RequiredSINRdB(mcs)
	if err != nil {
		return Alloc{}, false
	}
	perLayer := c.sinr[idx] - c.amc.layerPenalty(c.csiCfg.LayerPenaltyExp, rank)
	ack := blerAck(u.rng.Float64(), perLayer, req)
	c.olla[idx] = ollaStep(c.olla[idx], ack, cfg.TargetBLER)
	delivered := 0
	if ack {
		delivered = tbs
	}
	return Alloc{
		RBs: rbs, REs: params.REs(), Table: cfg.MCSTable, MCS: mcs,
		Rank: rank, TBSBits: tbs, ACK: ack, DeliveredBits: delivered,
	}, true
}

// Config returns the cell's effective configuration, with carrier and
// PF-window defaults applied.
func (c *Cell) Config() CellConfig { return c.cfg }

// SlotDuration returns the cell's slot length.
func (c *Cell) SlotDuration() time.Duration {
	return c.slotDur
}

// NumUEs returns the number of UEs sharing the cell.
func (c *Cell) NumUEs() int {
	return len(c.ues)
}

// ServedRate returns UE i's PF-window-smoothed served rate in
// bits/slot — the denominator of the proportional-fair metric. The
// window update clamps it to ≥ 1 so the metric can never divide by
// zero; the simtest harness asserts that invariant across policies.
func (c *Cell) ServedRate(i int) float64 {
	return c.served[i]
}
