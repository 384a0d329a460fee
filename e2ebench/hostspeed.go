package main

import (
	"math"
	"sync"
	"time"
)

// The host-speed kernel. On a shared host the speed of a core can drift
// by half again over minutes, as other tenants load the machine, and
// every workload's wall and CPU time drifts with it. The
// kernel is fixed work that shares nothing with the simulator — a
// floating-point loop of the transcendental calls the channel layer
// makes, then random read-modify-writes over a buffer larger than L2 —
// run on every worker at once between iterations. Its median time over
// a run measures the host's speed during that run; wall_s, cpu_s and
// setup_s are reported at the speed of the host the benchmark was
// defined on: measured × kernelRef / kernel median.
const (
	kernelFPIters  = 100_000
	kernelMemIters = 1_500_000
	kernelBufLen   = 1 << 19 // uint64s per worker: 4 MiB
	// kernelRef is about the kernel's time on the 2-CPU Intel Xeon host
	// (go1.24.0) this benchmark was defined on, in a fast minute; it only
	// fixes the unit of the reported times.
	kernelRef = 20 * time.Millisecond
	// kernelShare is the share of each iteration's time spent sampling
	// the kernel before the next iteration (at least one sample).
	kernelShare = 0.05
)

type speedKernel struct {
	bufs [][]uint64
	sink []float64 // keeps each worker's result live
}

func newSpeedKernel(workers int) *speedKernel {
	k := &speedKernel{bufs: make([][]uint64, workers), sink: make([]float64, workers)}
	for i := range k.bufs {
		k.bufs[i] = make([]uint64, kernelBufLen)
		for j := range k.bufs[i] {
			k.bufs[i][j] = uint64(j) * 0x9e3779b97f4a7c15
		}
	}
	return k
}

// sample runs the kernel once on every worker at once.
func (k *speedKernel) sample() time.Duration {
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := range k.bufs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			k.sink[w] = kernelWork(k.bufs[w], uint64(w+1))
		}(w)
	}
	wg.Wait()
	return time.Since(t0)
}

func kernelWork(buf []uint64, x uint64) float64 {
	acc := 0.0
	for i := 0; i < kernelFPIters; i++ {
		v := float64(i&1023) / 1023
		acc += math.Log10(v+10) + math.Pow(10, (v-1)/10) + math.Hypot(v, 1)
	}
	var h uint64
	mask := uint64(len(buf) - 1)
	for i := 0; i < kernelMemIters; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		j := (x >> 40) & mask
		h ^= buf[j]
		buf[j] = h + x
	}
	return acc + float64(h&1)
}
