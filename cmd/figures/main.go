// Command figures regenerates every table and figure of the paper's
// evaluation and prints the rows/series each one plots.
//
// The ~30 artifacts are independent simulation jobs, so they fan out
// over the fleet worker pool: each job renders into its own buffer and
// the buffers are emitted in figure order, making the output
// byte-identical for any -parallel value.
//
// The multi-scale variability figures (12, 13) regenerate through the
// columnar trace pipeline: their sessions capture to in-memory .xcol
// traces and the plotted series are rebuilt from a projected block scan
// (see docs/ARCHITECTURE.md "Trace pipeline"), with a test pinning the
// scanned series equal to the in-memory ones.
//
// Observability: -obs-listen serves live /metrics, /debug/pprof and
// /debug/vars during the run; -progress prints periodic jobs-done + ETA
// snapshots to stderr; with -csv, a RunManifest (manifest.json) is
// written next to the CSVs recording the config digest, seed and
// toolchain of the run. None of it alters the rendered output.
//
// Usage:
//
//	figures [-quick] [-seed N] [-only fig11,fig12,...] [-parallel N]
//	        [-csv DIR] [-obs-listen :9090] [-progress 2s]
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/midband5g/midband/internal/experiments"
	"github.com/midband5g/midband/internal/fault"
	"github.com/midband5g/midband/internal/fleet"
	"github.com/midband5g/midband/internal/obs"
	"github.com/midband5g/midband/internal/report"
)

// options carry the CLI flags into run, keeping it testable.
type options struct {
	quick      bool
	seed       int64
	only       string
	csvDir     string
	parallel   int
	obsListen  string
	progress   time.Duration
	cpuProfile string
	memProfile string
	faults     string
	// args are the positional arguments left after the flags. Flag
	// parsing stops at the first one, so any is an error: the flags
	// after it would be silently dropped.
	args []string
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("figures: ")
	var opt options
	flag.BoolVar(&opt.quick, "quick", false, "run shortened sessions")
	flag.Int64Var(&opt.seed, "seed", 2024, "simulation seed")
	flag.StringVar(&opt.only, "only", "", "comma-separated subset, e.g. fig01,fig11,table1")
	flag.StringVar(&opt.csvDir, "csv", "", "also write machine-readable CSV files to this directory")
	flag.IntVar(&opt.parallel, "parallel", 0, "concurrent figure jobs (default: GOMAXPROCS; 1 = serial)")
	flag.StringVar(&opt.obsListen, "obs-listen", "", "serve /metrics, /debug/pprof and /debug/vars on this address during the run (\":0\" picks a port)")
	flag.DurationVar(&opt.progress, "progress", 0, "interval between stderr progress snapshots (0 disables)")
	flag.StringVar(&opt.cpuProfile, "cpuprofile", "", "write a CPU profile of the whole run to this file")
	flag.StringVar(&opt.memProfile, "memprofile", "", "write a heap profile at exit to this file")
	flag.StringVar(&opt.faults, "faults", "", "fault-injection spec for campaign-based figures, e.g. rlf=2e-4,abort=0.05,seed=7 (empty disables)")
	flag.Parse()
	opt.args = flag.Args()
	stopProf, err := obs.StartProfiles(opt.cpuProfile, opt.memProfile)
	if err != nil {
		log.Fatal(err)
	}
	err = run(opt, os.Stdout, os.Stderr)
	if perr := stopProf(); err == nil {
		err = perr
	}
	if err != nil {
		log.Fatal(err)
	}
}

// manifestConfig is the digested run configuration for the RunManifest:
// exactly the inputs that determine figure output. Worker count is
// excluded (output is byte-identical for any -parallel value).
type manifestConfig struct {
	Only  string `json:"only,omitempty"`
	Quick bool   `json:"quick"`
	Seed  int64  `json:"seed"`
	// Faults is the -faults spec verbatim; omitted when empty so
	// fault-free manifests keep their historical config digest.
	Faults string `json:"faults,omitempty"`
}

// run regenerates the selected figures, streaming progress to stderr and
// the rendered tables — in deterministic figure order — to stdout.
func run(opt options, stdout, stderr io.Writer) error {
	if len(opt.args) > 0 {
		return fmt.Errorf("unexpected argument(s) %q: flag parsing stops at the first non-flag argument, so the rest of the command line would be ignored (list -only keys comma-separated)", opt.args)
	}
	sched, err := fault.ParseSpec(opt.faults)
	if err != nil {
		return err
	}
	o := experiments.Options{Quick: opt.quick, Seed: opt.seed, Workers: opt.parallel, Faults: sched}

	var m fleet.Metrics
	t0 := time.Now() //detlint:allow walltime CLI wall-cost accounting for the manifest, never simulation input
	if opt.obsListen != "" || opt.progress > 0 {
		obs.SetEnabled(true)
	}
	if opt.obsListen != "" {
		reg := obs.Default()
		reg.GaugeFunc("fleet_jobs_done", func() float64 { return float64(m.JobsDone.Load()) })
		reg.GaugeFunc("fleet_jobs_total", func() float64 { return float64(m.JobsTotal.Load()) })
		reg.GaugeFunc("run_elapsed_seconds", func() float64 { return time.Since(t0).Seconds() }) //detlint:allow walltime live /metrics gauge, observability only
		srv, err := obs.Serve(opt.obsListen, reg)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "figures: obs endpoint on http://%s (/metrics /debug/pprof /debug/vars)\n", srv.Addr())
	}
	if opt.progress > 0 {
		stop := obs.StartProgress(obs.ProgressConfig{
			W:        stderr,
			Interval: opt.progress,
			Prefix:   "figures",
			Done:     m.JobsDone.Load,
			Total:    m.JobsTotal.Load,
		})
		defer stop()
	}

	var onlyKeys []string
	wanted := map[string]bool{}
	for _, k := range strings.Split(opt.only, ",") {
		if k = strings.TrimSpace(strings.ToLower(k)); k != "" {
			onlyKeys = append(onlyKeys, k)
			wanted[k] = true
		}
	}
	want := func(k string) bool { return len(wanted) == 0 || wanted[k] }
	csvOut := func(write func(string) error) error {
		if opt.csvDir == "" {
			return nil
		}
		return write(opt.csvDir)
	}

	type figJob struct {
		key string
		run func(w io.Writer) error
	}
	var fig1 []experiments.Fig01Row
	var fig9 []experiments.Fig09Row
	var fig11 []experiments.Fig11Row
	jobs := []figJob{
		{"table1", func(w io.Writer) error {
			s, err := experiments.Table1(o)
			if err != nil {
				return err
			}
			report.Table1(w, s)
			return nil
		}},
		{"tables23", func(w io.Writer) error {
			rows, err := experiments.Tables23(o)
			if err != nil {
				return err
			}
			report.Tables23(w, rows)
			return nil
		}},
		{"sec32", func(w io.Writer) error {
			rows, err := experiments.Sec32(o)
			if err != nil {
				return err
			}
			report.Sec32(w, rows)
			return nil
		}},
		{"fig01", func(w io.Writer) error {
			rows, err := experiments.Fig01(o)
			if err != nil {
				return err
			}
			fig1 = rows
			report.Fig01(w, rows)
			return csvOut(func(d string) error { return report.Fig01CSV(d, rows) })
		}},
		{"fig02", func(w io.Writer) error {
			rows, err := experiments.Fig02(o)
			if err != nil {
				return err
			}
			report.Fig02(w, rows)
			return csvOut(func(d string) error { return report.Fig02CSV(d, rows) })
		}},
		{"fig03", func(w io.Writer) error {
			rows, err := experiments.Fig03(o)
			if err != nil {
				return err
			}
			report.Fig03(w, rows)
			return nil
		}},
		{"fig04", func(w io.Writer) error {
			rows, err := experiments.Fig04(o)
			if err != nil {
				return err
			}
			report.Fig04(w, rows)
			return nil
		}},
		{"fig05", func(w io.Writer) error {
			rows, err := experiments.Fig05(o)
			if err != nil {
				return err
			}
			report.Fig05(w, rows)
			return nil
		}},
		{"fig06", func(w io.Writer) error {
			rows, err := experiments.Fig06(o)
			if err != nil {
				return err
			}
			report.Fig06(w, rows)
			return nil
		}},
		{"fig07", func(w io.Writer) error {
			rows, err := experiments.Fig07(o)
			if err != nil {
				return err
			}
			report.Fig07(w, rows)
			return nil
		}},
		{"fig08", func(w io.Writer) error {
			rows, err := experiments.Fig08(o)
			if err != nil {
				return err
			}
			report.Fig08(w, rows)
			return nil
		}},
		{"fig09", func(w io.Writer) error {
			rows, err := experiments.Fig09(o)
			if err != nil {
				return err
			}
			fig9 = rows
			report.Fig09(w, rows)
			return csvOut(func(d string) error { return report.Fig09CSV(d, rows) })
		}},
		{"fig10", func(w io.Writer) error {
			rows, err := experiments.Fig10(o)
			if err != nil {
				return err
			}
			report.Fig10(w, rows)
			return nil
		}},
		{"fig11", func(w io.Writer) error {
			rows, err := experiments.Fig11(o)
			if err != nil {
				return err
			}
			fig11 = rows
			report.Fig11(w, rows)
			return csvOut(func(d string) error { return report.Fig11CSV(d, rows) })
		}},
		{"fig12", func(w io.Writer) error {
			rows, err := experiments.Fig12(o)
			if err != nil {
				return err
			}
			report.Fig12(w, rows)
			return csvOut(func(d string) error { return report.Fig12CSV(d, rows) })
		}},
		{"fig13", func(w io.Writer) error {
			r, err := experiments.Fig13(o)
			if err != nil {
				return err
			}
			report.Fig13(w, r)
			return nil
		}},
		{"fig14", func(w io.Writer) error {
			rows, err := experiments.Fig14(o)
			if err != nil {
				return err
			}
			report.Fig14(w, rows)
			return nil
		}},
		{"fig15", func(w io.Writer) error {
			rows, err := experiments.Fig15(o)
			if err != nil {
				return err
			}
			report.Fig15(w, rows)
			return nil
		}},
		{"fig16", func(w io.Writer) error {
			r, err := experiments.Fig16(o)
			if err != nil {
				return err
			}
			report.Fig16(w, r)
			return nil
		}},
		{"fig17", func(w io.Writer) error {
			rows, err := experiments.Fig17(o)
			if err != nil {
				return err
			}
			report.Fig17(w, rows)
			return csvOut(func(d string) error { return report.Fig17CSV(d, rows) })
		}},
		{"fig18", func(w io.Writer) error {
			rows, err := experiments.Fig18(o)
			if err != nil {
				return err
			}
			report.Fig18(w, rows)
			return csvOut(func(d string) error { return report.Fig18CSV(d, rows) })
		}},
		{"fig19", func(w io.Writer) error {
			rows, err := experiments.Fig19(o)
			if err != nil {
				return err
			}
			report.Fig19(w, rows)
			return nil
		}},
		{"fig23", func(w io.Writer) error {
			rows, err := experiments.Fig23(o)
			if err != nil {
				return err
			}
			report.Fig23(w, rows)
			return nil
		}},
		{"fig24", func(w io.Writer) error {
			rows, err := experiments.Fig24(o)
			if err != nil {
				return err
			}
			report.Fig24(w, rows)
			return nil
		}},
		{"sec7", func(w io.Writer) error {
			rows, err := experiments.Sec7(o)
			if err != nil {
				return err
			}
			report.Sec7(w, rows)
			return csvOut(func(d string) error { return report.Sec7CSV(d, rows) })
		}},
		{"exta", func(w io.Writer) error {
			rows, err := experiments.ExtNSAvsSA(o)
			if err != nil {
				return err
			}
			report.ExtNSAvsSA(w, rows)
			return nil
		}},
		{"extb", func(w io.Writer) error {
			rows, err := experiments.ExtTDDSweep(o)
			if err != nil {
				return err
			}
			report.ExtTDDSweep(w, rows)
			return nil
		}},
		{"extc", func(w io.Writer) error {
			rows, err := experiments.ExtABRComparison(o)
			if err != nil {
				return err
			}
			report.ExtABR(w, rows)
			return nil
		}},
		{"extd", func(w io.Writer) error {
			rows, err := experiments.ExtSchedulers(o)
			if err != nil {
				return err
			}
			report.ExtSchedulers(w, rows)
			return nil
		}},
		{"exte", func(w io.Writer) error {
			rows, err := experiments.ExtTransport(o)
			if err != nil {
				return err
			}
			report.ExtTransport(w, rows)
			return nil
		}},
		{"extf", func(w io.Writer) error {
			rows, err := experiments.ExtHandover(o)
			if err != nil {
				return err
			}
			report.ExtHandover(w, rows)
			return nil
		}},
	}

	known := make(map[string]bool, len(jobs))
	valid := make([]string, len(jobs))
	for i, j := range jobs {
		known[j.key] = true
		valid[i] = j.key
	}
	for _, k := range onlyKeys {
		if !known[k] {
			return fmt.Errorf("unknown -only key %q (valid keys: %s)", k, strings.Join(valid, ", "))
		}
	}
	var selected []figJob
	for _, j := range jobs {
		if want(j.key) {
			selected = append(selected, j)
		}
	}
	// Every figure renders into its own pooled buffer; the ordered
	// results are streamed afterwards, so -parallel never interleaves
	// the report, and drained buffers recycle through fleet's pool.
	fjobs := make([]fleet.Job[*bytes.Buffer], len(selected))
	for i := range selected {
		j := selected[i]
		fjobs[i] = fleet.Job[*bytes.Buffer]{
			Key: j.key,
			Run: func(context.Context) (*bytes.Buffer, error) {
				buf := fleet.GetBuffer()
				if err := j.run(buf); err != nil {
					fleet.PutBuffer(buf)
					return nil, err
				}
				return buf, nil
			},
		}
	}
	results, err := fleet.Run(context.Background(), fjobs, fleet.Options{
		Workers: opt.parallel,
		Metrics: &m,
		Progress: func(done, total int, key string) {
			fmt.Fprintf(stderr, "figures: [%d/%d] %s (%.1fs)\n", done, total, key, time.Since(t0).Seconds()) //detlint:allow walltime stderr progress line, not part of figure output
		},
	})
	for _, r := range results {
		if r.Err == nil && r.Value != nil {
			_, werr := io.Copy(stdout, r.Value)
			fleet.PutBuffer(r.Value)
			if werr != nil {
				return werr
			}
		}
	}
	if err != nil {
		return err
	}
	if len(wanted) == 0 && fig1 != nil && fig9 != nil && fig11 != nil {
		report.PaperComparison(stdout, fig1, fig9, fig11)
	}
	fmt.Fprintln(stdout)
	if opt.csvDir != "" {
		if err := writeManifest(opt, t0, &m); err != nil {
			return err
		}
	}
	return nil
}

// writeManifest records the run next to its CSV outputs so every figure
// is reproducible from the manifest's config digest and seed.
func writeManifest(opt options, t0 time.Time, m *fleet.Metrics) error {
	man, err := obs.NewManifest("figures", manifestConfig{Only: opt.only, Quick: opt.quick, Seed: opt.seed, Faults: opt.faults})
	if err != nil {
		return err
	}
	man.Seed = opt.seed
	man.Workers = fleet.EffectiveWorkers(opt.parallel)
	man.WallSeconds = time.Since(t0).Seconds() //detlint:allow walltime manifest wall-cost field, excluded from the config digest
	man.JobsDone = m.JobsDone.Load()
	entries, err := os.ReadDir(opt.csvDir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".csv") {
			man.Outputs = append(man.Outputs, e.Name())
		}
	}
	return obs.WriteManifest(filepath.Join(opt.csvDir, "manifest.json"), man)
}
