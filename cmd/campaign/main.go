// Command campaign runs a measurement campaign across the operator registry
// and writes one trace per session, reproducing the data collection
// methodology of §2. Traces are written in the columnar .xcol container
// (streamable with bounded memory; see docs/ARCHITECTURE.md "Trace
// pipeline"); `xcaldump -convert` turns one into a legacy row .xcal
// file. Sessions fan out over the fleet worker pool; -parallel bounds
// the workers and the results are identical for any value because every
// session seed derives from the job key alone.
//
// Observability: -obs-listen serves live /metrics (Prometheus text),
// /debug/pprof and /debug/vars while the campaign runs; -progress prints
// periodic slots/sec + ETA snapshots to stderr. Every run writes a
// RunManifest (manifest.json) next to the traces recording the config
// digest, seed, toolchain and run accounting, so any trace can be traced
// back to the exact run that produced it. None of this feeds back into
// the simulation: aggregates and traces are byte-identical with
// observability on or off.
//
// Fault injection: -faults arms a deterministic fault schedule
// (radio-link failures, SINR blackouts, trace I/O errors, session aborts,
// worker panics — see internal/fault). The campaign then degrades
// gracefully: transient failures retry with simulated backoff and
// sessions that still fail are recorded as failure provenance in the
// manifest instead of failing the run. Without -faults the campaign is
// byte-identical to one built before fault injection existed.
//
// Usage:
//
//	campaign [-out DIR] [-duration 10s] [-seed N] [-ops V_Sp,Tmb_US]
//	         [-parallel N] [-obs-listen :9090] [-progress 2s]
//	         [-faults rlf=2e-4,abort=0.05,trace=1e-3,seed=7]
//	         [-ues-per-cell 4] [-cell-policy pf]
//
// Multi-UE contention: -ues-per-cell N (N > 1) appends a shared-cell arm
// after the per-session measurements — each operator's primary carrier
// runs as one cell with N contending UEs under -cell-policy (pf, rr, mt
// or eq), reporting per-UE goodput shares and Jain fairness. The default
// (1) is byte-identical to the legacy single-UE campaign, including the
// manifest's config digest. -cell-policy without -ues-per-cell above 1
// is rejected, as is any positional argument: flag parsing stops at the
// first one, so the flags after it would be silently ignored.
//
// Scenarios: -scenario runs a declarative scenario instead of the
// flag-driven bulk campaign — a shipped pack name (see `scenario list`)
// or a spec file path. The spec owns the workload (traffic, route, band
// plan, population, faults, sessions), so the workload-shaping flags
// -ops, -duration, -faults, -ues-per-cell and -cell-policy are rejected
// alongside it; run-level flags (-seed, -parallel, -out, -obs-listen,
// -progress, profiles) compose as usual. -quick shrinks the scenario to
// CI scale first. The manifest records the scenario name and canonical
// digest, and the report is the scenario's KPI table.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/midband5g/midband/internal/core"
	"github.com/midband5g/midband/internal/fault"
	"github.com/midband5g/midband/internal/fleet"
	"github.com/midband5g/midband/internal/gnb"
	"github.com/midband5g/midband/internal/obs"
	"github.com/midband5g/midband/internal/operators"
	"github.com/midband5g/midband/internal/report"
	"github.com/midband5g/midband/internal/scenario"
)

// manifestConfig is the digested run configuration: exactly the inputs
// that determine campaign outputs. Workers is deliberately excluded —
// outputs are byte-identical for any worker count — and recorded on the
// manifest's top level instead.
type manifestConfig struct {
	Operators       []string `json:"operators"`
	DurationSeconds float64  `json:"duration_seconds"`
	Seed            int64    `json:"seed"`
	// Faults is the -faults spec verbatim; omitted when empty so
	// fault-free manifests keep their historical config digest.
	Faults string `json:"faults,omitempty"`
	// UEsPerCell and CellPolicy describe the multi-UE contention arm;
	// both are omitted for single-UE campaigns (-ues-per-cell <= 1) so
	// legacy manifests keep their historical config digest.
	UEsPerCell int    `json:"ues_per_cell,omitempty"`
	CellPolicy string `json:"cell_policy,omitempty"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("campaign: ")
	out := flag.String("out", "traces", "directory for traces and manifest.json")
	duration := flag.Duration("duration", 10*time.Second, "bulk-transfer duration per operator")
	seed := flag.Int64("seed", 2024, "simulation seed")
	ops := flag.String("ops", "", "comma-separated operator acronyms (default: all mid-band)")
	parallel := flag.Int("parallel", 0, "concurrent sessions (default: GOMAXPROCS; 1 = serial)")
	obsListen := flag.String("obs-listen", "", "serve /metrics, /debug/pprof and /debug/vars on this address during the run (\":0\" picks a port)")
	progress := flag.Duration("progress", 0, "interval between stderr progress snapshots (0 disables)")
	faults := flag.String("faults", "", "fault-injection spec, e.g. rlf=2e-4,blackout=1e-4,trace=1e-3,abort=0.05,panic=0.02,attempts=3,seed=7 (empty disables)")
	uesPerCell := flag.Int("ues-per-cell", 1, "attached UEs contending per cell; >1 appends a multi-UE contention arm (see docs/SIMULATION-MODEL.md)")
	cellPolicy := flag.String("cell-policy", "pf", "multi-UE scheduler: pf, rr, mt or eq (used with -ues-per-cell > 1)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	scenarioArg := flag.String("scenario", "", "run a declarative scenario: a shipped pack name or a spec file path (conflicts with the workload-shaping flags; see doc)")
	quick := flag.Bool("quick", false, "shrink the -scenario to CI scale (sessions, durations, probes) before running")
	flag.Parse()
	if err := usageError(flag.Args(), flag.Visit, *scenarioArg != "", *quick, *uesPerCell); err != nil {
		log.Fatal(err)
	}

	stopProf, err := obs.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			log.Print(err)
		}
	}()

	var selected []operators.Operator
	if *ops != "" {
		for _, acr := range strings.Split(*ops, ",") {
			op, err := operators.ByAcronym(strings.TrimSpace(acr))
			if err != nil {
				log.Fatal(err)
			}
			selected = append(selected, op)
		}
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}

	var m fleet.Metrics
	t0 := time.Now() //detlint:allow walltime CLI wall-cost accounting for the manifest, never simulation input
	if *obsListen != "" || *progress > 0 {
		obs.SetEnabled(true)
	}
	if *obsListen != "" {
		reg := obs.Default()
		reg.GaugeFunc("fleet_jobs_done", func() float64 { return float64(m.JobsDone.Load()) })
		reg.GaugeFunc("fleet_jobs_total", func() float64 { return float64(m.JobsTotal.Load()) })
		reg.GaugeFunc("fleet_slots_simulated", func() float64 { return float64(m.SlotsSimulated.Load()) })
		reg.GaugeFunc("fleet_trace_bytes", func() float64 { return float64(m.TraceBytes.Load()) })
		reg.GaugeFunc("run_elapsed_seconds", func() float64 { return time.Since(t0).Seconds() }) //detlint:allow walltime live /metrics gauge, observability only
		srv, err := obs.Serve(*obsListen, reg)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "campaign: obs endpoint on http://%s (/metrics /debug/pprof /debug/vars)\n", srv.Addr())
	}
	if *progress > 0 {
		stop := obs.StartProgress(obs.ProgressConfig{
			W:        os.Stderr,
			Interval: *progress,
			Prefix:   "campaign",
			Done:     m.JobsDone.Load,
			Total:    m.JobsTotal.Load,
			Slots:    m.SlotsSimulated.Load,
		})
		defer stop()
	}

	if *scenarioArg != "" {
		runScenario(*scenarioArg, *quick, *out, *seed, *parallel, &m, t0)
		return
	}

	opNames := make([]string, 0, len(selected))
	for _, op := range selected {
		opNames = append(opNames, op.Acronym)
	}
	if len(opNames) == 0 {
		for _, op := range operators.MidBand() {
			opNames = append(opNames, op.Acronym)
		}
	}
	sched, err := fault.ParseSpec(*faults)
	if err != nil {
		log.Fatal(err)
	}
	policy, err := gnb.ParsePolicy(*cellPolicy)
	if err != nil {
		log.Fatal(err)
	}
	mc := manifestConfig{
		Operators:       opNames,
		DurationSeconds: duration.Seconds(),
		Seed:            *seed,
		Faults:          *faults,
	}
	if *uesPerCell > 1 {
		mc.UEsPerCell = *uesPerCell
		mc.CellPolicy = policy.String()
	}
	manifest, err := obs.NewManifest("campaign", mc)
	if err != nil {
		log.Fatal(err)
	}
	manifest.Seed = *seed
	manifest.Workers = fleet.EffectiveWorkers(*parallel)

	stats, err := core.RunCampaign(core.CampaignConfig{
		Operators:       selected,
		SessionDuration: *duration,
		TraceDir:        *out,
		Seed:            *seed,
		Workers:         *parallel,
		Faults:          sched,
		UEsPerCell:      *uesPerCell,
		CellPolicy:      policy,
		Metrics:         &m,
		Progress: func(done, total int, key string) {
			fmt.Fprintf(os.Stderr, "campaign: [%d/%d] %s (%.1fs)\n", done, total, key, time.Since(t0).Seconds()) //detlint:allow walltime stderr progress line, not part of campaign output
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(t0).Seconds() //detlint:allow walltime manifest wall-cost field, excluded from the config digest

	manifest.WallSeconds = elapsed
	manifest.JobsDone = m.JobsDone.Load()
	manifest.SlotsSimulated = m.SlotsSimulated.Load()
	manifest.TraceBytes = m.TraceBytes.Load()
	manifest.Retries = m.Retries.Load()
	manifest.BackoffSimNs = int64(stats.BackoffSim)
	for _, f := range stats.Failures {
		manifest.Failures = append(manifest.Failures, obs.SessionFailure{
			Key:      f.Key,
			Operator: f.Operator,
			Session:  f.Session,
			Attempts: f.Attempts,
			Stage:    f.Stage,
			Err:      f.Err,
		})
		fmt.Fprintf(os.Stderr, "campaign: session %s failed after %d attempt(s): %s (%s)\n",
			f.Key, f.Attempts, f.Stage, f.Err)
	}
	for _, s := range stats.Sessions {
		if s.TracePath != "" {
			manifest.Outputs = append(manifest.Outputs, filepath.Base(s.TracePath))
		}
	}
	manifestPath := filepath.Join(*out, "manifest.json")
	if err := obs.WriteManifest(manifestPath, manifest); err != nil {
		log.Fatal(err)
	}

	if n := len(stats.Failures); n > 0 {
		fmt.Fprintf(os.Stderr, "campaign: %d session(s) lost to injected faults (%d retries, %v simulated backoff)\n",
			n, m.Retries.Load(), stats.BackoffSim)
	}
	slots := float64(m.SlotsSimulated.Load())
	fmt.Fprintf(os.Stderr, "campaign: %d sessions, %.2fM slots (%.2fM slots/s), %.1f KB traces, %.1fs wall\n",
		m.JobsDone.Load(), slots/1e6, slots/1e6/elapsed, float64(m.TraceBytes.Load())/1e3, elapsed)
	report.Table1(os.Stdout, stats)
	report.MultiUE(os.Stdout, stats.MultiUE)
	fmt.Printf("\n%d traces written to %s (manifest: %s)\n", stats.TraceFiles, *out, manifestPath)
}

// usageError rejects command lines that would run with part of their
// input silently ignored. args are the positional arguments flag
// parsing left over (it stops at the first one, so every flag after it
// would be dropped); visit iterates over the flags set explicitly.
func usageError(args []string, visit func(func(*flag.Flag)), scenario, quick bool, uesPerCell int) error {
	if len(args) > 0 {
		return fmt.Errorf("unexpected argument(s) %q: flag parsing stops at the first non-flag argument, so the rest of the command line would be ignored (list -ops comma-separated)", args)
	}
	if scenario {
		if conflicts := conflictingFlags(visit); len(conflicts) > 0 {
			return fmt.Errorf("-scenario provides the workload; the spec's traffic/band_plan/population/faults/sessions sections own %s — drop the flag(s) or edit the spec",
				strings.Join(conflicts, ", "))
		}
		return nil
	}
	if quick {
		return fmt.Errorf("-quick only applies to -scenario runs")
	}
	policySet := false
	visit(func(f *flag.Flag) { policySet = policySet || f.Name == "cell-policy" })
	if policySet && uesPerCell <= 1 {
		return fmt.Errorf("-cell-policy only applies with -ues-per-cell above 1 (got %d)", uesPerCell)
	}
	return nil
}

// scenarioConflictFlags are the workload-shaping flags a -scenario spec
// owns: each has a spec section that replaces it, so setting both is a
// contradiction, not an override.
var scenarioConflictFlags = []string{"ops", "duration", "faults", "ues-per-cell", "cell-policy"}

// conflictingFlags returns the workload-shaping flags the user set, in
// scenarioConflictFlags order, given a flag.Visit-style iterator over
// the flags explicitly present on the command line.
func conflictingFlags(visit func(func(*flag.Flag))) []string {
	set := map[string]bool{}
	visit(func(f *flag.Flag) { set[f.Name] = true })
	var out []string
	for _, name := range scenarioConflictFlags {
		if set[name] {
			out = append(out, "-"+name)
		}
	}
	return out
}

// loadScenario resolves the -scenario argument: a shipped pack name
// first, then a spec file path through the same strict decoder.
func loadScenario(arg string) (*scenario.Spec, error) {
	if spec, err := scenario.Pack(arg); err == nil {
		return spec, nil
	}
	data, err := os.ReadFile(arg)
	if err != nil {
		return nil, fmt.Errorf("-scenario %q is neither a shipped pack (%s) nor a readable spec file: %w",
			arg, strings.Join(scenario.PackNames(), ", "), err)
	}
	return scenario.Decode(data)
}

// scenarioManifestConfig is the digested configuration of a -scenario
// run: the canonical spec plus the run-level inputs that shape outputs.
type scenarioManifestConfig struct {
	Scenario json.RawMessage `json:"scenario"`
	Seed     int64           `json:"seed"`
	Quick    bool            `json:"quick,omitempty"`
}

// runScenario executes the -scenario path: resolve the spec, run it,
// write the manifest (stamped with the scenario name and digest) and
// print the scenario report.
func runScenario(arg string, quick bool, out string, seed int64, parallel int, m *fleet.Metrics, t0 time.Time) {
	spec, err := loadScenario(arg)
	if err != nil {
		log.Fatal(err)
	}
	if quick {
		spec = spec.QuickScale()
	}
	canonical, err := spec.Canonical()
	if err != nil {
		log.Fatal(err)
	}
	manifest, err := obs.NewManifest("campaign", scenarioManifestConfig{
		Scenario: canonical,
		Seed:     seed,
		Quick:    quick,
	})
	if err != nil {
		log.Fatal(err)
	}
	manifest.Seed = seed
	manifest.Workers = fleet.EffectiveWorkers(parallel)
	if err := spec.StampManifest(manifest); err != nil {
		log.Fatal(err)
	}

	res, err := scenario.Run(context.Background(), spec, scenario.Options{
		Seed:     seed,
		Workers:  parallel,
		Metrics:  m,
		TraceDir: out,
		Progress: func(done, total int, key string) {
			fmt.Fprintf(os.Stderr, "campaign: [%d/%d] %s (%.1fs)\n", done, total, key, time.Since(t0).Seconds()) //detlint:allow walltime stderr progress line, not part of campaign output
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(t0).Seconds() //detlint:allow walltime manifest wall-cost field, excluded from the config digest

	manifest.WallSeconds = elapsed
	manifest.JobsDone = m.JobsDone.Load()
	manifest.SlotsSimulated = m.SlotsSimulated.Load()
	manifest.TraceBytes = m.TraceBytes.Load()
	manifest.Retries = m.Retries.Load()
	manifest.BackoffSimNs = int64(res.BackoffSim)
	failures := res.Failures
	if res.Bulk != nil {
		failures = res.Bulk.Failures
	}
	for _, f := range failures {
		manifest.Failures = append(manifest.Failures, obs.SessionFailure{
			Key:      f.Key,
			Operator: f.Operator,
			Session:  f.Session,
			Attempts: f.Attempts,
			Stage:    f.Stage,
			Err:      f.Err,
		})
		fmt.Fprintf(os.Stderr, "campaign: session %s failed after %d attempt(s): %s (%s)\n",
			f.Key, f.Attempts, f.Stage, f.Err)
	}
	if res.Bulk != nil {
		for _, s := range res.Bulk.Sessions {
			if s.TracePath != "" {
				manifest.Outputs = append(manifest.Outputs, filepath.Base(s.TracePath))
			}
		}
	}
	manifestPath := filepath.Join(out, "manifest.json")
	if err := obs.WriteManifest(manifestPath, manifest); err != nil {
		log.Fatal(err)
	}

	slots := float64(m.SlotsSimulated.Load())
	fmt.Fprintf(os.Stderr, "campaign: scenario %s (%d jobs, %.2fM slots, %.1fs wall)\n",
		res.Name, m.JobsDone.Load(), slots/1e6, elapsed)
	report.Scenario(os.Stdout, res)
	fmt.Printf("\nmanifest: %s\n", manifestPath)
}
