// Package study orchestrates the paper's full experimental design: 182
// fault-injection campaigns per benchmark program (§III-E) — one
// single-bit campaign plus 90 (max-MBF, win-size) multi-bit clusters per
// technique — and regenerates every table and figure of the evaluation
// from the results.
package study

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"

	"multiflip/internal/core"
	"multiflip/internal/prog"
	"multiflip/internal/vm"
	"multiflip/internal/xrand"
)

// Options configures a study run: the campaign grid Run executes and
// the transition reruns of RunTransitions. HangFactorAblation,
// AlignmentAblation and memfault.SweepTable take no Options: whatever
// these say, they run with GOMAXPROCS workers, the exact classifier,
// core.FailFast and no journal, and the ablations on targets with every
// tier on.
type Options struct {
	// N is the number of experiments per campaign. The paper uses 10,000;
	// smaller values trade confidence-interval width for wall-clock time.
	// Zero selects 500.
	N int
	// Seed drives all campaign sampling; a study is reproducible given
	// (Seed, N, Programs, grid).
	Seed uint64
	// Programs selects benchmark names; empty selects all 15.
	Programs []string
	// MaxMBFs overrides Table I's max-MBF grid (empty = standard).
	MaxMBFs []int
	// WinSizes overrides Table I's win-size grid (empty = standard).
	WinSizes []core.WinSize
	// StuckAtWindow is the hold window of the stuck-at extension
	// campaign run per program alongside the flip grid (zero =
	// core.DefaultStuckWindow).
	StuckAtWindow core.WinSize
	// NoStuckAt skips the stuck-at extension campaigns entirely; the
	// stuck-at table and the EXT answers row are then omitted.
	NoStuckAt bool
	// Workers bounds the study's parallelism (0 = GOMAXPROCS): up to
	// Workers campaigns run at once and split Workers engine workers
	// between them, so at most Workers experiments run at once. Results
	// do not depend on it; Workers 1 runs the campaigns one after another
	// in grid order. When a campaign fails under core.FailFast no further
	// campaign starts, and the campaigns already running are interrupted.
	Workers int
	// HangFactor scales the hang budget (0 = core.DefaultHangFactor).
	HangFactor uint64
	// Disable turns speed tiers off on every target the study prepares
	// (zero = all on; see core.TargetOptions.Disable). Results are
	// bit-identical for any set; the knob supports A/B timing and the CI
	// ablation matrix.
	Disable vm.Tiers
	// Classifier judges golden-vs-actual output in every campaign of the
	// study (nil = core.ExactClassifier). Non-default classifiers journal
	// under their own campaign fingerprints.
	Classifier core.Classifier
	// OnFailure decides what happens to an experiment that fails or
	// panics at every supervision tier, in every campaign of the study:
	// core.FailFast (default) aborts the study (see Workers),
	// core.Quarantine poisons the experiment and keeps draining
	// (quarantined experiments then render in their own table).
	OnFailure core.FailurePolicy
	// JournalDir, when set, runs every campaign as a durable journaled
	// job under this directory: campaigns checkpoint per shard, a killed
	// study resumes from its last checkpoints (with Resume), and
	// concurrent study processes sharing the directory drain the same
	// campaigns cooperatively. Campaign journals are content-addressed,
	// so no coordination beyond the shared directory is needed.
	JournalDir string
	// Resume folds checkpoints already present in JournalDir instead of
	// discarding them. Without it, every campaign starts fresh.
	Resume bool
	// Log, when non-nil, receives one progress line per campaign batch.
	Log io.Writer
}

// engine returns one of the study's campaigns: n experiments of model m
// on target t under the study's hang budget, classifier and failure
// policy, journaled under JournalDir when it is set (otherwise on the
// engine's in-memory fast path).
func (o Options) engine(t *core.Target, m core.FaultModel, n int, seed uint64) *core.Engine {
	e := &core.Engine{
		Target:        t,
		Model:         m,
		N:             n,
		Seed:          seed,
		HangFactor:    o.HangFactor,
		Classifier:    o.Classifier,
		FailurePolicy: o.OnFailure,
	}
	if o.JournalDir != "" {
		e.Service = &core.Service{Dir: o.JournalDir, Resume: o.Resume}
	}
	return e
}

func (o Options) withDefaults() Options {
	if o.N == 0 {
		o.N = 500
	}
	if len(o.Programs) == 0 {
		o.Programs = prog.Names()
	}
	if len(o.MaxMBFs) == 0 {
		o.MaxMBFs = core.StandardMaxMBF()
	}
	if len(o.WinSizes) == 0 {
		o.WinSizes = core.StandardWinSizes()
	}
	if o.StuckAtWindow == (core.WinSize{}) {
		o.StuckAtWindow = core.Win(core.DefaultStuckWindow)
	}
	return o
}

// ProgData holds one program's campaigns.
type ProgData struct {
	// Target is the prepared workload.
	Target *core.Target
	// Single maps technique -> the single bit-flip campaign (recorded, so
	// the transition study can pin its locations).
	Single map[core.Technique]*core.CampaignResult
	// Multi maps technique -> multi-bit campaigns in grid enumeration
	// order (max-MBF major, win-size minor).
	Multi map[core.Technique][]*core.CampaignResult
	// StuckAt is the stuck-at extension campaign: one register bit held
	// at 0/1 across every read in the Options.StuckAtWindow window.
	StuckAt *core.EngineResult
}

// MultiByConfig returns the campaign for a configuration, or nil.
func (d *ProgData) MultiByConfig(tech core.Technique, cfg core.Config) *core.CampaignResult {
	for _, r := range d.Multi[tech] {
		if r.Spec.Config == cfg {
			return r
		}
	}
	return nil
}

// MultiWithWin returns the campaigns matching the predicate on win-size.
func (d *ProgData) MultiWithWin(tech core.Technique, keep func(core.WinSize) bool) []*core.CampaignResult {
	var out []*core.CampaignResult
	for _, r := range d.Multi[tech] {
		if keep(r.Spec.Config.Win) {
			out = append(out, r)
		}
	}
	return out
}

// Study is the complete result set.
type Study struct {
	// Opts echoes the (defaulted) options.
	Opts Options
	// Programs lists program names in Table II order.
	Programs []string
	// Data maps program name -> campaigns.
	Data map[string]*ProgData

	// transOnce memoizes RunTransitions: the §IV-C3 pinned campaigns run
	// at most once per study, no matter how many renderers (markdown,
	// CSV, answers) ask for them.
	transOnce sync.Once
	trans     map[string]map[core.Technique]*TransitionResult
	transErr  error
}

// Run executes the study: for every program and technique, the single
// bit-flip campaign plus the (MaxMBFs x WinSizes) multi-bit grid.
func Run(opts Options) (*Study, error) {
	opts = opts.withDefaults()
	// Every name is checked before any campaign runs: a typo must not
	// cost the campaigns of the programs listed before it, and a repeated
	// program would run twice and render duplicate rows.
	benches := make([]prog.Benchmark, len(opts.Programs))
	seen := make(map[string]bool, len(opts.Programs))
	for i, name := range opts.Programs {
		b, err := prog.ByName(name)
		if err != nil {
			return nil, err
		}
		if seen[name] {
			return nil, fmt.Errorf("study: program %q is listed twice", name)
		}
		seen[name] = true
		benches[i] = b
	}
	// The targets are prepared first, so that one campaign list spans
	// every program and no core idles while a target is profiled.
	targets := make([]*core.Target, len(benches))
	prepare := make([]job, len(benches))
	for i, b := range benches {
		prepare[i] = job{run: func(int, func(*core.Engine)) error {
			p, err := b.Build()
			if err != nil {
				return fmt.Errorf("study: build %s: %w", b.Name, err)
			}
			targets[i], err = core.NewTargetOpts(b.Name, p, core.TargetOptions{Disable: opts.Disable})
			return err
		}}
	}
	if err := runJobs(opts.Workers, nil, prepare); err != nil {
		return nil, err
	}
	s := &Study{
		Opts:     opts,
		Programs: opts.Programs,
		Data:     make(map[string]*ProgData, len(opts.Programs)),
	}
	var (
		mu   sync.Mutex // guards the ProgData the campaigns fill
		jobs []job
	)
	for i, b := range benches {
		d := &ProgData{
			Target: targets[i],
			Single: make(map[core.Technique]*core.CampaignResult, 2),
			Multi:  make(map[core.Technique][]*core.CampaignResult, 2),
		}
		s.Data[b.Name] = d
		jobs = append(jobs, programJobs(opts, b.Name, d, &mu)...)
	}
	if err := runJobs(opts.Workers, opts.Log, jobs); err != nil {
		return nil, err
	}
	return s, nil
}

// programJobs lists one program's campaigns: per technique the
// single-bit campaign and the multi-bit grid, then the stuck-at
// campaign. Each campaign stores its result in d under mu, a multi-bit
// one in its grid slot, so d does not depend on which campaign ends
// first.
func programJobs(opts Options, name string, d *ProgData, mu *sync.Mutex) []job {
	grid := len(opts.MaxMBFs) * len(opts.WinSizes)
	var jobs []job
	flip := func(log string, tech core.Technique, cfg core.Config, record bool, store func(*core.CampaignResult)) {
		jobs = append(jobs, job{log: log, run: func(workers int, start func(*core.Engine)) error {
			spec := core.CampaignSpec{Technique: tech, Config: cfg}
			seed := campaignSeed(opts.Seed, name, tech, cfg)
			e := opts.engine(d.Target, &core.RegisterModel{Spec: &spec}, opts.N, seed)
			e.Workers, e.Record = workers, record
			start(e)
			res, err := e.Run()
			if err != nil {
				return err
			}
			mu.Lock()
			store(&core.CampaignResult{Spec: spec, EngineResult: *res})
			mu.Unlock()
			return nil
		}})
	}
	for _, tech := range core.Techniques() {
		d.Multi[tech] = make([]*core.CampaignResult, grid)
		log := fmt.Sprintf("%s %s: single-bit + %d multi-bit campaigns (n=%d)", name, tech, grid, opts.N)
		flip(log, tech, core.SingleBit(), true, func(r *core.CampaignResult) { d.Single[tech] = r })
		for j, m := range opts.MaxMBFs {
			for k, w := range opts.WinSizes {
				slot := &d.Multi[tech][j*len(opts.WinSizes)+k]
				flip("", tech, core.Config{MaxMBF: m, Win: w}, false, func(r *core.CampaignResult) { *slot = r })
			}
		}
	}
	if opts.NoStuckAt {
		return jobs
	}
	// The stuck-at extension rides the same engine: one campaign per
	// program, anchored in the inject-on-read candidate space.
	log := fmt.Sprintf("%s stuck-at: window %s (n=%d)", name, opts.StuckAtWindow, opts.N)
	return append(jobs, job{log: log, run: func(workers int, start func(*core.Engine)) error {
		m := &core.StuckAtModel{Spec: &core.StuckAtSpec{Window: opts.StuckAtWindow}}
		e := opts.engine(d.Target, m, opts.N, stuckSeed(opts.Seed, name, opts.StuckAtWindow))
		e.Workers = workers
		start(e)
		res, err := e.Run()
		if err != nil {
			return err
		}
		mu.Lock()
		d.StuckAt = res
		mu.Unlock()
		return nil
	}})
}

// job is one entry of a list that runJobs runs: a campaign, or the
// preparation of a target.
type job struct {
	// log, when not empty, is the progress line written as the job
	// starts; a batch's first campaign carries the batch's line.
	log string
	// run runs the job on the given number of engine workers. A campaign
	// hands its Engine to start before running it, so that runJobs can
	// interrupt it when another job fails.
	run func(workers int, start func(*core.Engine)) error
}

// runJobs runs a list of jobs, starting them in list order, up to
// workers (0 = GOMAXPROCS) at a time. It splits the workers between the
// jobs in flight as evenly as it can, so at most workers experiments
// run at once; with one worker the jobs run one after another. Each
// job's log line goes to log as it starts, so the log keeps list order.
// A job is dropped once it has run, so what it captured does not stay
// reachable while later jobs run. After a failure no further job
// starts, and the campaigns still running are interrupted; the error
// returned is that of the first failed job in list order, not counting
// the interrupts runJobs caused.
func runJobs(workers int, log io.Writer, jobs []job) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	inFlight := min(workers, len(jobs))
	errs := make([]error, len(jobs))
	var (
		mu      sync.Mutex // guards next, failed, running, errs and the log
		next    int
		failed  bool
		running = make(map[int]*core.Engine) // the campaigns in flight, by job
		wg      sync.WaitGroup
	)
	// claim hands out the next job. It writes the job's log line under
	// mu, so the lines keep list order; a slow log delays only the next
	// start, as it delayed the next campaign of a serial loop.
	claim := func() (int, job) {
		mu.Lock()
		defer mu.Unlock()
		if failed || next == len(jobs) {
			return -1, job{}
		}
		i, j := next, jobs[next]
		next++
		jobs[i] = job{}
		if j.log != "" {
			logf(log, "%s", j.log)
		}
		return i, j
	}
	for slot := range inFlight {
		// The first workers%inFlight slots take one worker more.
		each := workers / inFlight
		if slot < workers%inFlight {
			each++
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, j := claim()
				if i < 0 {
					return
				}
				err := j.run(each, func(e *core.Engine) {
					mu.Lock()
					defer mu.Unlock()
					// A campaign that starts after a failure stops at once.
					if failed {
						e.Interrupt()
					}
					running[i] = e
				})
				mu.Lock()
				delete(running, i)
				// Only runJobs interrupts the study's campaigns, and only
				// after a failure.
				if err != nil && !(failed && errors.Is(err, core.ErrInterrupted)) {
					errs[i] = err
					if !failed {
						failed = true
						for _, e := range running {
							e.Interrupt()
						}
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// stuckSeed derives a stable seed per (study seed, program, window) for
// the stuck-at extension, disjoint from the flip campaigns' seeds.
func stuckSeed(seed uint64, name string, win core.WinSize) uint64 {
	h := seed ^ 0x13198a2e03707344 // distinct stream from campaignSeed
	for _, c := range []byte(name) {
		h = h*1099511628211 + uint64(c)
	}
	h ^= uint64(uint32(win.Lo)) << 16
	h ^= uint64(uint32(win.Hi))
	return xrand.SplitMix64(&h)
}

// campaignSeed derives a stable seed per (study seed, program, technique,
// config).
func campaignSeed(seed uint64, name string, tech core.Technique, cfg core.Config) uint64 {
	h := seed ^ 0x243f6a8885a308d3
	for _, c := range []byte(name) {
		h = h*1099511628211 + uint64(c)
	}
	h ^= uint64(tech) << 56
	h ^= uint64(cfg.MaxMBF) << 40
	h ^= uint64(uint32(cfg.Win.Lo)) << 16
	h ^= uint64(uint32(cfg.Win.Hi))
	return xrand.SplitMix64(&h)
}

func logf(w io.Writer, format string, args ...any) {
	if w == nil {
		return
	}
	fmt.Fprintf(w, format+"\n", args...)
}
