package gnb

import (
	"fmt"
	"time"

	"github.com/midband5g/midband/internal/channel"
)

// This file is the batched stepper for population-scale contention
// cells. A CellBatch adopts an existing contention-model Cell and moves
// its UEs' channels into a channel.Batch, which advances the fading of
// the whole UE set in one structure-of-arrays pass (per-lane AR(1)
// constants hoisted, RSRQ conversion and Sample construction skipped).
// Everything after the channels is the Cell's own code: the same sense
// pass and the same contention scheduler that Cell.Step runs. The two
// Steps differ only in how the channels advance and in how the
// neighbour-load push fans out.
//
// Determinism contract: CellBatch.Step is draw-for-draw and bit-identical
// to Cell.Step on the same configuration. channel.Batch.StepInto
// reproduces Channel.Step per lane (internal/channel/batch_test.go),
// every RNG consumer keeps its own fleet.SplitSeed-derived stream, and
// the load push visits lanes in UE-index order. The lockstep tests in
// cellbatch_test.go pin this with Float64bits equality over ≥100k slots
// for all four schedulers.

// CellBatch advances a contention-model Cell one slot per call with its
// UE channels batched. It adopts the Cell passed to NewCellBatch: the
// UEs' channels move into a channel.Batch, and the Cell must not be
// stepped directly until Detach. Not safe for concurrent use.
type CellBatch struct {
	cell *Cell
	chb  *channel.Batch
}

// NewCellBatch adopts a contention-model Cell into a batch stepper. The
// Cell keeps all its state (RNG streams, HARQ queues, buffers, OLLA and
// PF arrays); the batch only relocates the channels' fading state. The
// Cell must not be stepped directly while adopted.
func NewCellBatch(cell *Cell) (*CellBatch, error) {
	if cell == nil {
		return nil, fmt.Errorf("gnb: batch needs a cell")
	}
	if cell.cfg.Model != CellModelContention {
		return nil, fmt.Errorf("gnb: batch stepping requires CellModelContention (the share model steps only through Cell.Step)")
	}
	chs := make([]*channel.Channel, len(cell.ues))
	for i, u := range cell.ues {
		chs[i] = u.ch
	}
	chb, err := channel.NewBatch(chs)
	if err != nil {
		return nil, fmt.Errorf("gnb: batch: %w", err)
	}
	return &CellBatch{cell: cell, chb: chb}, nil
}

// Step advances one slot for the whole UE population. The returned
// CellSlot's Allocs slice is owned by the underlying Cell and valid
// until the next Step call. See the file comment for the equivalence
// contract with Cell.Step.
//
//detlint:zeroalloc
func (b *CellBatch) Step() CellSlot {
	c := b.cell
	b.chb.StepInto(c.sinr, c.outage)
	res := c.sense()
	var push bool
	res.Allocs, push = c.contend(res.Slot)
	if push {
		b.chb.SetNeighborLoad(c.loadEMA)
	}
	return res
}

// Cell returns the adopted cell for its read-only accessors (LoadEMA,
// ServedRate, NumUEs, Config). Step it only after Detach.
func (b *CellBatch) Cell() *Cell { return b.cell }

// NumUEs returns the number of UEs sharing the cell.
func (b *CellBatch) NumUEs() int { return len(b.cell.ues) }

// SlotDuration returns the cell's slot length.
func (b *CellBatch) SlotDuration() time.Duration { return b.cell.slotDur }

// LoadEMA returns the smoothed RB utilization (see Cell.LoadEMA).
func (b *CellBatch) LoadEMA() float64 { return b.cell.loadEMA }

// ServedRate returns UE i's PF-smoothed served rate (see Cell.ServedRate).
func (b *CellBatch) ServedRate(i int) float64 { return b.cell.served[i] }

// FastLanes returns how many UE channels run on the SoA fast path.
func (b *CellBatch) FastLanes() int { return b.chb.FastLanes() }

// Detach writes the batched fading state back into the UEs' channels and
// returns the cell, which can then be stepped directly (Cell.Step picks
// up exactly where the batch left off). The batch must not be stepped
// afterwards.
func (b *CellBatch) Detach() *Cell {
	b.chb.Detach()
	return b.cell
}
