package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/midband5g/midband/internal/bands"
	"github.com/midband5g/midband/internal/fault"
	"github.com/midband5g/midband/internal/fleet"
	"github.com/midband5g/midband/internal/gnb"
	"github.com/midband5g/midband/internal/iperf"
	"github.com/midband5g/midband/internal/net5g"
	"github.com/midband5g/midband/internal/obs"
	"github.com/midband5g/midband/internal/operators"
	"github.com/midband5g/midband/internal/xcal"
	"github.com/midband5g/midband/internal/xcol"
)

// freqToARFCN converts a carrier's center frequency to the NR raster.
func freqToARFCN(c operators.Carrier) (uint32, error) {
	arfcn, err := bands.FreqToARFCN(c.Band.CenterMHz())
	if err != nil {
		return 0, fmt.Errorf("core: %s: %w", c.Label(), err)
	}
	return arfcn, nil
}

// CampaignConfig parameterizes a full measurement campaign across the
// operator registry.
type CampaignConfig struct {
	// Operators to measure (default: the full mid-band registry).
	Operators []operators.Operator
	// SessionDuration is the bulk-transfer length per operator.
	SessionDuration time.Duration
	// SessionsPerOperator averages the throughput KPIs over several
	// independent sessions, as the campaign methodology does (default 3;
	// the trace captures the first session).
	SessionsPerOperator int
	// LatencyProbes per operator.
	LatencyProbes int
	// TraceDir, when non-empty, receives one trace file per session.
	TraceDir string
	// TraceFormat is kept for existing callers: traces are always
	// written as columnar .xcol files, and "" and "xcol" both select
	// that container. Any other value fails the traced sessions.
	TraceFormat string
	// Seed drives all sessions. Each (operator, session) job derives
	// its own seed from the base seed and the job indices — never from
	// worker identity — so results are identical for any Workers value.
	Seed int64
	// Workers bounds the parallel session fan-out (<=0: GOMAXPROCS).
	Workers int
	// Faults, when non-nil and armed, injects deterministic failures
	// into every session (see package fault) and switches the campaign
	// to graceful degradation: transient failures are retried up to the
	// schedule's MaxAttempts with simulated backoff, and sessions that
	// still fail become Failures provenance on the stats instead of a
	// campaign error. Nil keeps the legacy fail-fast behavior and a
	// byte-identical fault-free campaign.
	Faults *fault.Schedule
	// Metrics, when non-nil, receives fleet counters (sessions done,
	// simulated slots, trace bytes written, retries).
	Metrics *fleet.Metrics
	// Progress, when non-nil, is called after each session completes.
	Progress func(done, total int, key string)
	// UEsPerCell, when > 1, appends a multi-UE contention arm after the
	// per-session measurements: each operator's primary carrier re-runs
	// as one shared cell with this many contending UEs under CellPolicy
	// (see RunMultiUEContext). 0 or 1 keeps the campaign — stats,
	// traces and manifest digest — byte-identical to the legacy
	// single-UE path.
	UEsPerCell int
	// CellPolicy is the multi-UE scheduler (zero value: equal share).
	// Only consulted when UEsPerCell > 1.
	CellPolicy gnb.SchedulerPolicy
}

// SessionReport is the outcome of one operator's session.
type SessionReport struct {
	Operator  string
	Country   string
	City      string
	DLMbps    float64
	ULMbps    float64
	NRULMbps  float64
	LTEULMbps float64
	// DataBytes is the volume transferred (the Table 1 "data consumed").
	DataBytes float64
	// TracePath is the written capture (empty without TraceDir).
	TracePath string
	// LatencyClean/Retx are the mean §4.3 latencies.
	LatencyClean, LatencyRetx time.Duration
	// Sessions is how many of the operator's sessions contributed to the
	// averages (equals SessionsPerOperator unless fault injection
	// failed some).
	Sessions int
}

// SessionFailure records one session that still failed after the
// campaign's bounded retries — the provenance of a hole in the
// aggregate KPIs.
type SessionFailure struct {
	// Key is the fleet job key, "ACRONYM/index".
	Key      string
	Operator string
	// Session is the session index within the operator.
	Session int
	// Attempts is how many times the session ran before giving up.
	Attempts int
	// Stage classifies the failure: "abort", "panic", "trace-io",
	// "cancelled" or "error".
	Stage string
	Err   string
}

// CampaignStats aggregates Table 1.
type CampaignStats struct {
	Countries  map[string]bool
	Cities     map[string]bool
	Operators  int
	Minutes    float64
	DataTB     float64
	Sessions   []SessionReport
	TraceFiles int
	// Failures lists sessions lost to injected (or genuine) faults, in
	// submission order. Empty without fault injection.
	Failures []SessionFailure
	// BackoffSim is the total simulated retry backoff (never slept).
	BackoffSim time.Duration
	// MultiUE holds the contention-arm reports, in registry order.
	// Empty unless CampaignConfig.UEsPerCell > 1.
	MultiUE []MultiUEReport
}

// sessionOutcome is what one fleet job (one operator session) produces:
// the session averages, never the per-slot series.
type sessionOutcome struct {
	dl, ul, nrUL, lteUL float64
	tracePath           string
	// clean/retx are the mean latencies, measured on the primary
	// (session-index-0) job only, like the serial campaign did.
	clean, retx time.Duration
}

// traceWrap adapts a fault session into the xcol.CreateFileVia sink
// hook; nil sessions (or sessions without trace faults armed) wrap
// nothing.
func traceWrap(fs *fault.Session) func(io.Writer) io.Writer {
	if fs == nil {
		return nil
	}
	return func(w io.Writer) io.Writer { return fs.TraceWriter(w) }
}

// openTrace creates the session's columnar capture file. The interface
// is only ever bound to a non-nil concrete writer, so the nil checks in
// Session.RunIperf stay meaningful.
func openTrace(format, path string, meta xcal.Meta, fs *fault.Session) (xcal.TraceWriter, *os.File, error) {
	if format != "" && format != "xcol" {
		return nil, nil, fmt.Errorf("core: unknown trace format %q", format)
	}
	return xcol.CreateFileVia(path, meta, traceWrap(fs))
}

// runSession executes one operator session — build the link, optionally
// open a trace, run the bulk transfer — and guarantees the trace file is
// closed on every path. On error the partial trace is removed so a
// failed campaign leaves no half-written captures behind. A non-nil
// fault session threads injectors into the link, may shorten the
// transfer to an abort point, and may wrap the trace sink with
// write-error injection. The session runs with iperf's Discard set, so
// the result holds only the session averages and the returned slot count
// is the number of slots the run stepped.
func runSession(op operators.Operator, sc operators.Scenario, d time.Duration, format, tracePath string, m *fleet.Metrics, fs *fault.Session) (*Session, *iperf.Result, int64, error) {
	sess, err := NewSessionWithFaults(op, sc, fs)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("core: %s: %w", op.Acronym, err)
	}
	aborted := fs != nil && fs.Abort
	if aborted {
		// The schedule kills this session partway through: run the
		// surviving fraction so any partial trace holds real slots, then
		// abandon the measurement below.
		d = time.Duration(float64(d) * fs.AbortFraction)
	}
	var w xcal.TraceWriter
	var f *os.File
	if tracePath != "" {
		w, f, err = openTrace(format, tracePath, sess.Meta(), fs)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("core: creating trace: %w", err)
		}
	}
	res, err := sess.runIperf(d, net5g.Saturate, w, true)
	if err == nil && aborted {
		err = fleet.Permanent(fault.ErrSessionAborted)
		if obs.Enabled() {
			obs.Sim.SessionAborts.Inc()
		}
	}
	if f != nil {
		if err == nil {
			// Close, not Flush: the columnar container finalizes its
			// block index and tail here.
			err = w.Close()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			os.Remove(tracePath)
		} else if m != nil {
			if fi, serr := os.Stat(tracePath); serr == nil {
				m.TraceBytes.Add(fi.Size())
			}
		}
	}
	if err != nil {
		if errors.Is(err, fault.ErrInjectedIO) && obs.Enabled() {
			obs.Sim.InjectedTraceErrors.Inc()
		}
		return nil, nil, 0, fmt.Errorf("core: %s: %w", op.Acronym, err)
	}
	slots := int64(d / res.SlotDuration) // iperf.Run's step count
	if m != nil {
		m.SlotsSimulated.Add(slots)
	}
	return sess, res, slots, nil
}

// FailureStage classifies a session error into the provenance category
// recorded on SessionFailure ("abort", "trace-io", "cancelled", "panic"
// or "error"). The scenario runner shares it so both campaign paths
// report identical categories.
func FailureStage(err error) string { return failureStage(err) }

// failureStage classifies a session error for provenance reporting.
func failureStage(err error) string {
	switch {
	case errors.Is(err, fault.ErrSessionAborted):
		return "abort"
	case errors.Is(err, fault.ErrInjectedIO):
		return "trace-io"
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return "cancelled"
	case strings.Contains(err.Error(), "panic:"):
		return "panic"
	default:
		return "error"
	}
}

// RunCampaign measures every configured operator once, stationary with
// full-buffer traffic, and aggregates the dataset statistics.
func RunCampaign(cfg CampaignConfig) (*CampaignStats, error) {
	return RunCampaignContext(context.Background(), cfg)
}

// RunCampaignContext is RunCampaign with cancellation: every
// (operator, session) pair is an independent fleet job, fanned out over
// cfg.Workers workers. Aggregation happens afterwards in submission
// order, so the resulting CampaignStats — including the floating-point
// accumulation order of Minutes and DataTB — is byte-identical for
// workers=1 and workers=N, with or without fault injection.
func RunCampaignContext(ctx context.Context, cfg CampaignConfig) (*CampaignStats, error) {
	ops := cfg.Operators
	if len(ops) == 0 {
		ops = operators.MidBand()
	}
	if cfg.SessionDuration == 0 {
		cfg.SessionDuration = 5 * time.Second
	}
	if cfg.LatencyProbes == 0 {
		cfg.LatencyProbes = 2000
	}
	if cfg.SessionsPerOperator == 0 {
		cfg.SessionsPerOperator = 3
	}
	spo := cfg.SessionsPerOperator
	faultsOn := cfg.Faults != nil && cfg.Faults.Config().Active()

	// One job per (operator, session index). The simulation seed is
	// split from the base seed by (operator, session index) alone via
	// fleet.SplitSeed — attempt-independent, so a retry replays the same
	// channel realization; only the fault plan re-draws per attempt.
	jobs := make([]fleet.Job[sessionOutcome], 0, len(ops)*spo)
	for _, op := range ops {
		for k := 0; k < spo; k++ {
			k, op := k, op
			key := fmt.Sprintf("%s/%d", op.Acronym, k)
			jobs = append(jobs, fleet.Job[sessionOutcome]{
				Key: key,
				RunAttempt: func(_ context.Context, attempt int) (sessionOutcome, error) {
					fs := cfg.Faults.Session(key, attempt)
					if fs != nil && fs.Panic {
						panic(fmt.Sprintf("fault: injected worker panic (%s, attempt %d)", key, attempt))
					}
					seed := fleet.SplitSeed(cfg.Seed, op.Acronym, k)
					path := ""
					if k == 0 && cfg.TraceDir != "" {
						sc := operators.Stationary(seed)
						path = filepath.Join(cfg.TraceDir, fmt.Sprintf("%s-%s.xcol", op.Acronym, sc.Name))
					}
					var t0 time.Time
					if obs.Enabled() {
						t0 = time.Now() //detlint:allow walltime per-session wall-cost metric behind the obs gate
					}
					sess, res, slots, err := runSession(op, operators.Stationary(seed), cfg.SessionDuration, cfg.TraceFormat, path, cfg.Metrics, fs)
					if err != nil {
						return sessionOutcome{}, err
					}
					// Observability only: record the session's wall cost
					// per simulated slot and its goodput. Metrics are
					// write-only here, so obs-on and obs-off campaigns
					// aggregate byte-identically.
					if obs.Enabled() {
						if slots > 0 {
							obs.Sim.SlotLatencyNs.Observe(float64(time.Since(t0).Nanoseconds()) / float64(slots)) //detlint:allow walltime write-only metric; aggregates never depend on it
						}
						obs.Sim.SessionGoodputMbps.Observe(res.DLMbps)
						obs.GoodputMbps(op.Acronym).Observe(res.DLMbps)
					}
					out := sessionOutcome{
						dl: res.DLMbps, ul: res.ULMbps, nrUL: res.NRULMbps, lteUL: res.LTEULMbps,
						tracePath: path,
					}
					if k == 0 {
						// The primary session also probes §4.3 latency.
						clean, retx, err := sess.RunLatency(cfg.LatencyProbes, 0.08)
						if err != nil {
							return sessionOutcome{}, fmt.Errorf("core: %s latency: %w", op.Acronym, err)
						}
						out.clean, out.retx = meanDuration(clean), meanDuration(retx)
					}
					return out, nil
				},
			})
		}
	}
	opts := fleet.Options{
		Workers:  cfg.Workers,
		Metrics:  cfg.Metrics,
		Progress: cfg.Progress,
	}
	var clock fleet.SimClock
	if faultsOn {
		// Graceful degradation: run every job, retry transients with
		// simulated backoff, and convert surviving failures into
		// provenance below instead of failing the campaign.
		opts.OnError = fleet.CollectAll
		opts.MaxAttempts = cfg.Faults.MaxAttempts()
		opts.Clock = &clock
	}
	results, err := fleet.Run(ctx, jobs, opts)
	if err != nil {
		if !faultsOn {
			return nil, err
		}
		if ctx.Err() != nil {
			// External cancellation is not an injected fault; surface it.
			return nil, fmt.Errorf("core: campaign cancelled: %w", ctx.Err())
		}
	}

	// Deterministic aggregation: walk operators in registry order and
	// sessions in index order, mirroring the serial loop's arithmetic.
	// Failed sessions contribute provenance instead of KPIs; with zero
	// failures the float accumulation order is exactly the historical
	// one, so fault-capable and legacy campaigns are byte-identical.
	stats := &CampaignStats{
		Countries: map[string]bool{},
		Cities:    map[string]bool{},
	}
	for i, op := range ops {
		base := i * spo
		var dl, ul, nrUL, lteUL float64
		var primary *sessionOutcome
		nOK := 0
		for k := 0; k < spo; k++ {
			r := &results[base+k]
			if r.Err != nil {
				// Provenance keeps the error's first line only: a recovered
				// panic carries its stack, whose goroutine IDs and addresses
				// would break workers=1 vs workers=N byte-identity.
				msg := r.Err.Error()
				if nl := strings.IndexByte(msg, '\n'); nl >= 0 {
					msg = msg[:nl]
				}
				stats.Failures = append(stats.Failures, SessionFailure{
					Key:      r.Key,
					Operator: op.Acronym,
					Session:  k,
					Attempts: r.Attempts,
					Stage:    failureStage(r.Err),
					Err:      msg,
				})
				if obs.Enabled() {
					obs.Sim.SessionsFailed.Inc()
				}
				continue
			}
			o := r.Value
			if k == 0 {
				primary = &r.Value
			}
			dl += o.dl
			ul += o.ul
			nrUL += o.nrUL
			lteUL += o.lteUL
			nOK++
			if k > 0 {
				// Extra sessions at fresh channel realizations (§2:
				// experiments repeat across time periods; single windows
				// are congestion-episode lottery).
				stats.Minutes += cfg.SessionDuration.Minutes()
				stats.DataTB += (o.dl + o.ul) * 1e6 / 8 * cfg.SessionDuration.Seconds() / 1e12
			}
		}
		rep := SessionReport{
			Operator: op.Acronym,
			Country:  op.Country,
			City:     op.City,
			Sessions: nOK,
		}
		if primary != nil {
			if primary.tracePath != "" {
				stats.TraceFiles++
			}
			rep.TracePath = primary.tracePath
			rep.LatencyClean, rep.LatencyRetx = primary.clean, primary.retx
		}
		if nOK > 0 {
			n := float64(nOK)
			rep.DLMbps = dl / n
			rep.ULMbps = ul / n
			rep.NRULMbps = nrUL / n
			rep.LTEULMbps = lteUL / n
			rep.DataBytes = (dl/n + ul/n) * 1e6 / 8 * cfg.SessionDuration.Seconds()
			stats.Minutes += cfg.SessionDuration.Minutes()
			stats.DataTB += rep.DataBytes / 1e12
		}
		stats.Sessions = append(stats.Sessions, rep)
		stats.Countries[op.Country] = true
		stats.Cities[op.City] = true
	}
	stats.Operators = len(ops)
	stats.BackoffSim = clock.Now()
	if cfg.UEsPerCell > 1 {
		mu, err := RunMultiUEContext(ctx, MultiUEConfig{
			Operators:  ops,
			UEsPerCell: cfg.UEsPerCell,
			Policy:     cfg.CellPolicy,
			Duration:   cfg.SessionDuration,
			Seed:       cfg.Seed,
			Workers:    cfg.Workers,
			Metrics:    cfg.Metrics,
		})
		if err != nil {
			return nil, err
		}
		stats.MultiUE = mu
	}
	return stats, nil
}

func meanDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s / time.Duration(len(ds))
}
