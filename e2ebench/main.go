// Command e2ebench is the repository's end-to-end benchmark. It runs one
// named workload repeatedly for a fixed time from a single process,
// checks every output, and prints the end-to-end metrics; with -trace 1
// it instead replays the workload under benchmark-side spans, checks
// the replay against the untraced run bit for bit, runs the rung ladder
// and prints the per-layer metrics. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash e2ebench/run.sh --workload campaign-traces --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// workload is one named benchmark input set.
type workload interface {
	// run executes the workload once, untraced, and checks its outputs.
	run(e *env) *outcome
	// replay executes the same jobs through public calls under spans.
	replay(e *env, tr *tracer) *outcome
}

type workloadDef struct {
	name string
	make func() workload
	// Rung ladder sizes: link steps per link configuration, slots per
	// multi-UE cell.
	linkSteps, cellSlots int
}

var workloads = []workloadDef{
	{"campaign-traces", func() workload { return newCampaignTraces() }, 4000, 0},
	{"mobility-mmwave", func() workload { return mobilityMmWave{} }, 1000, 0},
	{"multiue-contention", func() workload { return newMultiUEContention() }, 0, 400},
}

// setupProbes is how many times a run measures its set-up.
const setupProbes = 15

// minIterations is the fewest untraced iterations a run measures, even
// when they take longer than --seconds (one mobility-mmwave iteration
// takes over 10 s): the reported medians need at least three samples.
const minIterations = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "how long to measure")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	probe := flag.Bool("setup-probe", false, "build the workload's inputs and exit (set-up timing)")
	flag.Parse()
	def, ok := lookup(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: want --workload %v, --seconds >= 1, --trace 0|1\n", names())
		os.Exit(2)
	}
	if *probe {
		def.make() // inputs are generated at construction
		return
	}
	if err := bench(def, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func lookup(name string) (workloadDef, bool) {
	for _, d := range workloads {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

func names() []string {
	var s []string
	for _, d := range workloads {
		s = append(s, d.name)
	}
	return s
}

func bench(def workloadDef, seed int64, budget time.Duration, traced bool) error {
	setup, err := measureSetup(def.name, seed)
	if err != nil {
		return err
	}
	dir, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("e2ebench-%d", os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	e := &env{seed: seed, workers: runtime.GOMAXPROCS(0), dir: dir}
	w := def.make()

	res := result{Correct: true, Metrics: map[string]metric{}}
	var digest string
	var walls, cpus, allocs []float64
	timed := func() (*outcome, float64) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		c0, t0 := cpuTime(), time.Now()
		out := w.run(e)
		wall, cpu := time.Since(t0).Seconds(), cpuTime()-c0
		runtime.ReadMemStats(&m1)
		walls, cpus = append(walls, wall), append(cpus, cpu)
		allocs = append(allocs, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
		tally(&res, out, &digest)
		e.iter++
		return out, wall
	}

	start := time.Now()
	if !traced {
		k := newSpeedKernel(e.workers)
		var kernel []float64
		var last float64
		for len(walls) < minIterations || time.Since(start) < budget {
			// Collect the previous iteration's garbage first, so that
			// neither the kernel nor the next iteration shares the CPUs
			// with its collection.
			runtime.GC()
			for spent := 0.0; spent == 0 || spent < kernelShare*last; {
				d := k.sample().Seconds()
				kernel, spent = append(kernel, d), spent+d
			}
			_, last = timed()
		}
		var rss syscall.Rusage
		_ = syscall.Getrusage(syscall.RUSAGE_SELF, &rss) // cannot fail for RUSAGE_SELF
		speed := kernelRef.Seconds() / median(kernel)
		put(res.Metrics, "wall_s", median(walls)*speed)
		put(res.Metrics, "cpu_s", median(cpus)*speed)
		put(res.Metrics, "setup_s", setup*speed)
		put(res.Metrics, "peak_rss_mb", float64(rss.Maxrss)/1024)
		put(res.Metrics, "alloc_mb", median(allocs))
		fmt.Printf("measured wall_s=%.6g cpu_s=%.6g setup_s=%.6g; host-speed kernel median %.6g s over %d samples (reference %.6g s)\n",
			median(walls), median(cpus), setup, median(kernel), len(kernel), kernelRef.Seconds())
	} else {
		var reps, untraced []*outcome
		var overheads, tracedWalls []float64
		// Replay pairs while another fits in the budget; always one.
		var pair time.Duration
		for len(reps) == 0 || time.Since(start)+pair <= budget {
			p0 := time.Now()
			u, uWall := timed()
			tr := newTracer()
			t0 := time.Now()
			r := w.replay(e, tr)
			tWall := time.Since(t0).Seconds()
			e.iter++
			r.spans = tr.spans
			res.Attempted += r.attempted
			res.Failed += r.failed
			report(r.problems)
			if r.digest != u.digest {
				// The replay ran a different program: its numbers would
				// describe that program, so none are reported.
				res.Correct = false
				fmt.Fprintf(os.Stderr, "e2ebench: traced replay digest %s differs from the untraced run's %s\n", r.digest, u.digest)
			}
			reps, untraced = append(reps, r), append(untraced, u)
			overheads, tracedWalls = append(overheads, tWall/uWall-1), append(tracedWalls, tWall)
			pair = time.Since(p0)
		}
		if res.Correct && res.Failed == 0 {
			lr, err := measureLadder(reps[len(reps)-1], def.linkSteps, def.cellSlots)
			if err != nil {
				return err
			}
			perRep := make([]map[string]float64, len(reps))
			for i, r := range reps {
				perRep[i] = layerMetrics(r, lr, untraced[i])
				perRep[i]["bench.trace_overhead_share"] = overheads[i]
			}
			for _, d := range perLayer {
				xs := make([]float64, len(perRep))
				for i, m := range perRep {
					xs[i] = m[d.name]
				}
				put(res.Metrics, d.name, median(xs))
			}
		}
		fmt.Printf("traced wall_s median %.4f over %d replays\n", median(tracedWalls), len(reps))
	}
	res.Correct = res.Correct && res.Failed == 0
	if !res.Correct {
		res.Metrics = map[string]metric{}
	}
	host, err := json.Marshal(fingerprint())
	if err != nil {
		return err
	}
	fmt.Printf("host %s\n", host)
	fmt.Printf("digest %s seed=%d sha256=%s\n", def.name, seed, digest)
	fmt.Printf("ops attempted=%d failed=%d ops_failed_share=%g iterations=%d\n",
		res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)), len(walls))
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// tally adds an untraced outcome to the result and checks that its
// digest matches the first iteration's: one seed, one output.
func tally(res *result, out *outcome, digest *string) {
	res.Attempted += out.attempted
	res.Failed += out.failed
	report(out.problems)
	switch {
	case *digest == "":
		*digest = out.digest
	case out.digest != *digest:
		res.Failed += out.attempted - out.failed
		fmt.Fprintf(os.Stderr, "e2ebench: output digest %s differs from the first iteration's %s\n", out.digest, *digest)
	}
}

func report(problems []string) {
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "e2ebench: check failed:", p)
	}
}

func put(m map[string]metric, name string, v float64) {
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if d.name == name {
			m[name] = metric{Value: finite(v), Unit: d.unit}
			return
		}
	}
	panic("e2ebench: unknown metric " + name) // a bug in this file
}

// cpuTime is the process's user+system CPU time in seconds.
func cpuTime() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// measureSetup times, setupProbes times, a child process that starts,
// initializes every package and builds the workload's inputs, and
// returns the median in seconds.
func measureSetup(name string, seed int64) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var ds []float64
	for i := 0; i < setupProbes; i++ {
		cmd := exec.Command(self, "--setup-probe", "--workload", name, "--seed", strconv.FormatInt(seed, 10))
		cmd.Stderr = os.Stderr
		t0 := time.Now()
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("setup probe: %w", err)
		}
		ds = append(ds, time.Since(t0).Seconds())
	}
	return median(ds), nil
}
