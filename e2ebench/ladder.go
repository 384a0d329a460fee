package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"
	"unsafe"

	"github.com/midband5g/midband/internal/channel"
	"github.com/midband5g/midband/internal/fleet"
	"github.com/midband5g/midband/internal/gnb"
	"github.com/midband5g/midband/internal/iperf"
	"github.com/midband5g/midband/internal/lte"
	"github.com/midband5g/midband/internal/net5g"
	"github.com/midband5g/midband/internal/video"
)

// The rung ladder splits the time of calls that nest below one public
// call. A replayed configuration is re-stepped on fresh objects through
// public Step/StepInto, one rung per layer, each rung timed as a block
// of slots:
//
//	channel  — every component carrier's channel.Channel
//	carrier  — every gnb.Carrier (its channel inside)
//	link     — the net5g.Link (its carriers inside)
//	iperf    — iperf.Run over a fresh link (the link inside)
//	video    — video.Play of a short video over a fresh link, for the
//	           configurations a video session streamed over
//
// A rung's self time is the rung minus the rung below it. The rungs are
// timed in turn by the CPU time of the thread that steps them, for
// ladderReps rounds on fresh objects; a self time is the median over
// the rounds of that round's difference. Adjacent rungs of one round
// run within milliseconds of each other, so a drift in the host's speed
// cancels from their difference, and the median drops the rare round
// another process disturbed.
const ladderReps = 9

// rungRates are one configuration's rung times per link step: the
// channel rung whole, every other rung's self time.
type rungRates struct {
	chNs, carSelf, linkSelf, iperfSelf, videoSelf float64
	chSlots                                       float64 // channel (= carrier) slots per link step
	allocBytes                                    float64 // iperf rung bytes allocated per link step
	geoNs                                         float64 // ns per Deployment.StrongestSite call
	tbs, acks, rlfs                               int64
}

// threadCPU is the CPU time the calling thread has used. Callers lock
// the goroutine to its thread while they compare two readings.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	// CLOCK_THREAD_CPUTIME_ID cannot fail for the calling thread.
	_, _, _ = syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID

// ladderLink measures the rungs of one link configuration over n steps.
func ladderLink(k linkKey, n int) (rungRates, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var r rungRates
	var ch, car, lnk, ip, video, alloc []float64
	per := float64(n)
	for rep := 0; rep < ladderReps; rep++ {
		chNs, slots, err := timeChannels(k, n)
		if err != nil {
			return r, err
		}
		carNs, tbs, acks, rlfs, err := timeCarriers(k, n)
		if err != nil {
			return r, err
		}
		linkNs, err := timeLink(k, n)
		if err != nil {
			return r, err
		}
		ipNs, bytes, err := timeIperf(k, n)
		if err != nil {
			return r, err
		}
		ch, car, lnk, ip = append(ch, chNs/per), append(car, (carNs-chNs)/per), append(lnk, (linkNs-carNs)/per), append(ip, (ipNs-linkNs)/per)
		alloc = append(alloc, bytes/per)
		if k.ladder != nil {
			idleNs, err := timeLink(linkKey{cfg: k.cfg, rsrq: k.rsrq}, n)
			if err != nil {
				return r, err
			}
			playNs, steps, dlSteps, err := timePlay(k)
			if err != nil {
				return r, err
			}
			// Play's own time: the Play rung minus its download steps at
			// the DL link rung and its idle steps at the idle link rung.
			linkTime := dlSteps*linkNs/per + (steps-dlSteps)*idleNs/per
			video = append(video, (playNs-linkTime)/steps)
		}
		r.chSlots = slots / per
		r.tbs, r.acks, r.rlfs = tbs, acks, rlfs
	}
	r.chNs, r.carSelf, r.linkSelf, r.iperfSelf = median(ch), median(car), median(lnk), median(ip)
	r.videoSelf, r.allocBytes = median(video), median(alloc)
	geo, err := timeGeometry(k, n)
	r.geoNs = geo
	return r, err
}

// warmSteps is the untimed prefix every rung steps before its timed
// block, so that each rung's block starts with warm caches and the same
// route position.
func warmSteps(n int) int { return n / 8 }

func freshLink(k linkKey) (*net5g.Link, error) {
	l, err := net5g.NewLink(k.cfg)
	if err != nil {
		return nil, err
	}
	l.SetRSRQNeeded(k.rsrq)
	return l, nil
}

// linkCarriers lists a link's NR carriers followed by its LTE anchor.
func linkCarriers(l *net5g.Link) []*gnb.Carrier {
	cs := append([]*gnb.Carrier(nil), l.Carriers()...)
	if a := l.Anchor(); a != nil {
		cs = append(cs, a)
	}
	return cs
}

// timeline replays a link's clock for the lower rungs: each link step,
// every carrier whose slot boundary has passed steps once, in carrier
// order, as net5g.Link.StepInto steps them.
type timeline struct {
	step time.Duration
	slot []time.Duration // per lane (carrier or its channel)
	next []time.Duration
	now  time.Duration
}

func newTimeline(l *net5g.Link) *timeline {
	t := &timeline{step: l.SlotDuration()}
	for _, c := range linkCarriers(l) {
		t.slot = append(t.slot, c.SlotDuration())
	}
	t.next = make([]time.Duration, len(t.slot))
	return t
}

// run advances n link steps, calling fn for every lane that ticks, and
// returns the number of ticks.
func (t *timeline) run(n int, fn func(lane int)) int {
	ticks := 0
	for i := 0; i < n; i++ {
		for j, d := range t.slot {
			if t.now >= t.next[j] {
				t.next[j] += d
				fn(j)
				ticks++
			}
		}
		t.now += t.step
	}
	return ticks
}

func timeChannels(k linkKey, n int) (ns, slots float64, err error) {
	l, err := freshLink(k)
	if err != nil {
		return 0, 0, err
	}
	var chs []*channel.Channel
	for _, c := range linkCarriers(l) {
		ch, err := channel.New(c.Config().Channel)
		if err != nil {
			return 0, 0, err
		}
		ch.SetRSRQNeeded(k.rsrq)
		chs = append(chs, ch)
	}
	var s channel.Sample
	step := func(lane int) { chs[lane].StepInto(&s) }
	tl := newTimeline(l)
	tl.run(warmSteps(n), step)
	t0 := threadCPU()
	ticks := tl.run(n, step)
	return float64(threadCPU() - t0), float64(ticks), nil
}

// timeCarriers steps a fresh link's carriers directly with the demand
// the link would hand them: DL on every NR carrier, NR UL on the PCell
// unless the NSA policy routes UL to the LTE anchor.
func timeCarriers(k linkKey, n int) (ns float64, tbs, acks, rlfs int64, err error) {
	l, err := freshLink(k)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	nrUL, lteUL := k.demand.UL, false
	if l.Anchor() != nil && k.cfg.ULPolicy == lte.ULPreferLTE {
		nrUL, lteUL = false, k.demand.UL
	}
	share := k.demand.Share
	if share == 0 {
		share = 1
	}
	cs := linkCarriers(l)
	nr := len(l.Carriers())
	count := func(a *gnb.Alloc) {
		if a != nil && a.TBSBits > 0 {
			tbs++
			if a.ACK {
				acks++
			}
		}
	}
	var r gnb.SlotResult
	step := func(lane int) {
		if lane == nr { // the LTE anchor carries uplink only
			cs[lane].StepInto(&r, gnb.Demand{}, gnb.Demand{Active: lteUL, Share: share})
		} else {
			cs[lane].StepInto(&r, gnb.Demand{Active: k.demand.DL, Share: share}, gnb.Demand{Active: nrUL && lane == 0, Share: share})
		}
		count(r.DL)
		count(r.UL)
	}
	tl := newTimeline(l)
	tl.run(warmSteps(n), step)
	tbs, acks = 0, 0
	t0 := threadCPU()
	tl.run(n, step)
	d := threadCPU() - t0
	for _, c := range cs {
		rlfs += c.RLFs()
	}
	return float64(d), tbs, acks, rlfs, nil
}

func timeLink(k linkKey, n int) (float64, error) {
	l, err := freshLink(k)
	if err != nil {
		return 0, err
	}
	var r net5g.StepResult
	for i := warmSteps(n); i > 0; i-- {
		l.StepInto(&r, k.demand)
	}
	t0 := threadCPU()
	for i := 0; i < n; i++ {
		l.StepInto(&r, k.demand)
	}
	return float64(threadCPU() - t0), nil
}

// timeIperf runs iperf.Run for n steps; a configuration that captured a
// trace keeps its records and writes them to a sink that drops them.
func timeIperf(k linkKey, n int) (ns, bytes float64, err error) {
	l, err := freshLink(k)
	if err != nil {
		return 0, 0, err
	}
	var r net5g.StepResult
	for i := warmSteps(n); i > 0; i-- {
		l.StepInto(&r, k.demand)
	}
	cfg := iperf.Config{Duration: time.Duration(n) * l.SlotDuration(), Demand: k.demand}
	if k.records {
		cfg.KeepRecords, cfg.Trace = true, nopWriter{}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := threadCPU()
	_, err = iperf.Run(l, cfg)
	d := threadCPU() - t0
	runtime.ReadMemStats(&m1)
	return float64(d), float64(m1.TotalAlloc - m0.TotalAlloc), err
}

// videoRungLength is the video the video rung streams: long enough to
// fill the buffer and drain it, short enough to keep the ladder quick.
const videoRungLength = 3 * time.Second

// timePlay streams a short video with BOLA over a fresh link and
// returns the time, the link steps and how many of them downloaded.
func timePlay(k linkKey) (ns, steps, dlSteps float64, err error) {
	l, err := freshLink(k)
	if err != nil {
		return 0, 0, 0, err
	}
	t0 := threadCPU()
	res, err := video.Play(l, video.SessionConfig{Ladder: k.ladder, ChunkLength: time.Second,
		VideoDuration: videoRungLength, ABR: video.NewBOLA()})
	d := (threadCPU() - t0)
	if err != nil {
		return 0, 0, 0, err
	}
	for _, c := range res.Chunks {
		dlSteps += float64((c.ArriveTime - c.RequestTime) / l.SlotDuration())
	}
	return float64(d), float64(l.Now() / l.SlotDuration()), dlSteps, nil
}

// timeGeometry times Deployment.StrongestSite at the positions each NR
// carrier's route visits over n link steps.
func timeGeometry(k linkKey, n int) (float64, error) {
	l, err := freshLink(k)
	if err != nil {
		return 0, err
	}
	var calls int
	var total time.Duration
	for _, c := range l.Carriers() {
		cc := c.Config().Channel
		m := int(time.Duration(n) * l.SlotDuration() / c.SlotDuration())
		pts := make([]channel.Point, m)
		for i := range pts {
			pts[i] = cc.Route.Position((time.Duration(i) * c.SlotDuration()).Seconds())
		}
		t0 := threadCPU()
		for _, p := range pts {
			cc.Deployment.StrongestSite(p, cc.CarrierFreqMHz)
		}
		total += (threadCPU() - t0)
		calls += m
	}
	if calls == 0 {
		return 0, fmt.Errorf("ladder: %s has no carrier slots", k.name)
	}
	return float64(total) / float64(calls), nil
}

// cellRates are one cell's batch rungs per UE-slot: the channel.Batch
// rung whole, the gnb.CellBatch rung's self time.
type cellRates struct {
	batchNs, cellSelf float64
	tbs, acks         int64
}

// ladderCell steps a cell's UE channels as a fresh channel.Batch, then
// a fresh gnb.CellBatch of the same configuration, n slots each.
func ladderCell(cellCfg gnb.CellConfig, n int) (cellRates, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var r cellRates
	var bt, ct []float64
	per := float64(n * len(cellCfg.UEs))
	for rep := 0; rep < ladderReps; rep++ {
		cell, err := gnb.NewCell(cellCfg)
		if err != nil {
			return r, err
		}
		cfg := cell.Config() // carrier defaults applied
		chs := make([]*channel.Channel, len(cfg.UEs))
		for i, pos := range cfg.UEs {
			chCfg := cfg.Carrier.Channel
			chCfg.Route = channel.Stationary(pos)
			chCfg.SlotDuration = cfg.Carrier.Numerology.SlotDuration()
			chCfg.Seed = fleet.SplitSeed(cfg.Seed, "gnb/cell/channel", i)
			if chs[i], err = channel.New(chCfg); err != nil {
				return r, err
			}
		}
		batch, err := channel.NewBatch(chs)
		if err != nil {
			return r, err
		}
		sinr, outage := make([]float64, len(chs)), make([]bool, len(chs))
		t0 := threadCPU()
		for s := 0; s < n; s++ {
			batch.StepInto(sinr, outage)
		}
		batchNs := float64(threadCPU() - t0)
		bt = append(bt, batchNs/per)

		cb, err := gnb.NewCellBatch(cell)
		if err != nil {
			return r, err
		}
		r.tbs, r.acks = 0, 0
		t0 = threadCPU()
		for s := 0; s < n; s++ {
			slot := cb.Step()
			for _, a := range slot.Allocs {
				if a.Alloc.TBSBits > 0 {
					r.tbs++
					if a.Alloc.ACK {
						r.acks++
					}
				}
			}
		}
		ct = append(ct, (float64(threadCPU()-t0)-batchNs)/per)
	}
	r.batchNs, r.cellSelf = median(bt), median(ct)
	return r, nil
}
