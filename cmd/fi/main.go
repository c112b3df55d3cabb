// Command fi runs a single fault-injection campaign: one benchmark
// program, one fault model, one configuration.
//
// Usage:
//
//	fi -prog CRC32 -tech read -mbf 3 -win 10 -n 10000 -seed 1
//	fi -prog CRC32 -model stuckat -win 100 -n 10000 -seed 1
//	fi -prog CRC32 -n 10000 -journal ./j          # durable, checkpointed
//	fi -prog CRC32 -n 10000 -journal ./j -resume  # continue after a crash
//	fi -journal ./j -status                       # inspect a journal dir
//	fi -prog CRC32 -n 10000 -disable snapshots    # ablate a speed tier
//	fi -prog CRC32 -n 10000 -cpuprofile cpu.prof  # profile the campaign
//
// The default model ("flip") is the paper's transient bit-flip model: the
// win flag is the (max-MBF, win-size) cluster's window in Table I
// notation — "0", "4", "1000" (fixed) or "2-10", "101-1000" (RND ranges)
// — and mbf=1 is the single bit-flip model. With -model stuckat, one
// register bit is instead held at 0/1 across every read in a dynamic
// window of -win instructions (the persistent-fault extension); -tech and
// -mbf are ignored.
//
// With -journal DIR the campaign runs as a durable job: it executes in
// shards checkpointed to DIR's journal log, DIR/journal.mfj, which every
// campaign journaled in DIR appends to under its own fingerprint. A
// killed run continues from its last checkpoint when re-run with
// -resume; without it the campaign starts over. Several fi processes
// given the same flags and -resume drain one campaign concurrently.
// -status lists every campaign in DIR with its shard progress and
// running tally.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"multiflip/internal/core"
	"multiflip/internal/profiling"
	"multiflip/internal/prog"
	"multiflip/internal/report"
	"multiflip/internal/stats"
	"multiflip/internal/vm"
)

// options carries the parsed command line.
type options struct {
	prog       string
	model      string
	tech       string
	mbf        int
	winSpec    string
	n          int
	seed       uint64
	hang       uint64
	workers    int
	disable    vm.Tiers
	classSpec  string
	onfailSpec string
	journal    string
	resume     bool
	status     bool
	cpuProfile string
	memProfile string

	// classifier is the parsed classSpec, onfail the parsed onfailSpec,
	// technique the parsed tech.
	classifier core.Classifier
	onfail     core.FailurePolicy
	technique  core.Technique
}

func main() {
	var o options
	flag.StringVar(&o.prog, "prog", "CRC32", "benchmark program (see cmd/proginfo for the list)")
	flag.StringVar(&o.model, "model", "flip", `fault model: "flip" (transient bit flips) or "stuckat" (bit held across a read window)`)
	flag.StringVar(&o.tech, "tech", "read", `technique: "read" (inject-on-read) or "write" (inject-on-write); flip model only`)
	flag.IntVar(&o.mbf, "mbf", 1, "max-MBF: maximum bit-flip errors per run (1 = single-bit model); flip model only")
	flag.StringVar(&o.winSpec, "win", "", `window: injection spacing for flip ("0", "100", "2-10", ...; default 0), hold length for stuckat (default 100)`)
	flag.IntVar(&o.n, "n", 1000, "experiments in the campaign (the paper uses 10000)")
	flag.Uint64Var(&o.seed, "seed", 1, "campaign seed (campaigns are exactly reproducible)")
	flag.Uint64Var(&o.hang, "hang", core.DefaultHangFactor, "hang budget as a multiple of the fault-free dynamic instruction count")
	flag.IntVar(&o.workers, "workers", 0, "parallel workers (0 = GOMAXPROCS)")
	flag.Var(&o.disable, "disable", "comma-separated speed `tiers` to turn off: snapshots, compile, converge (results are identical)")
	flag.StringVar(&o.classSpec, "classifier", "", `outcome classifier: "exact" (default) or "tol:abs=E,rel=E[,word=4|8][,float]" (tolerant output comparison)`)
	flag.StringVar(&o.onfailSpec, "onfail", "", `failure policy for experiments failing every supervision tier: "fast" (abort, default) or "quarantine" (poison and keep draining)`)
	flag.StringVar(&o.journal, "journal", "", "journal directory: run the campaign as a durable sharded job (checkpointed, resumable, multi-process), journaled in the directory's one log, journal.mfj")
	flag.BoolVar(&o.resume, "resume", false, "resume the journaled campaign from its last checkpoint (requires -journal)")
	flag.BoolVar(&o.status, "status", false, "list the campaigns in the -journal directory instead of running one")
	flag.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the campaign, target preparation included, to `file`")
	flag.StringVar(&o.memProfile, "memprofile", "", "write an allocation profile of the run to `file`")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "fi:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.resume && o.journal == "" {
		return fmt.Errorf("-resume needs -journal DIR (there is no journal to resume from)")
	}
	if o.status {
		if o.journal == "" {
			return fmt.Errorf("-status needs -journal DIR")
		}
		return runStatus(os.Stdout, o.journal)
	}
	// Reject bad flags before target preparation: profiling runs the
	// whole golden run plus snapshot and trace capture, which is seconds
	// of waste on a typo.
	if o.model != "flip" && o.model != "stuckat" {
		return fmt.Errorf("unknown model %q (want flip or stuckat)", o.model)
	}
	if o.n < 1 {
		return fmt.Errorf("-n must be >= 1, got %d", o.n)
	}
	if o.model == "flip" {
		switch o.tech {
		case "read":
			o.technique = core.InjectOnRead
		case "write":
			o.technique = core.InjectOnWrite
		default:
			return fmt.Errorf("unknown technique %q (want read or write)", o.tech)
		}
		if o.mbf < 1 {
			return fmt.Errorf("-mbf must be >= 1, got %d", o.mbf)
		}
	}
	var err error
	if o.classifier, err = core.ParseClassifier(o.classSpec); err != nil {
		return err
	}
	if o.onfail, err = core.ParseFailurePolicy(o.onfailSpec); err != nil {
		return err
	}
	win := core.Win(0)
	if o.model == "stuckat" {
		win = core.Win(core.DefaultStuckWindow)
	}
	if o.winSpec != "" {
		var err error
		if o.model == "stuckat" {
			win, err = core.ParseStuckWindow(o.winSpec)
		} else {
			win, err = core.ParseWinSize(o.winSpec)
		}
		if err != nil {
			return err
		}
	}
	stop, err := profiling.Start(o.cpuProfile, o.memProfile)
	if err != nil {
		return err
	}
	return errors.Join(runCampaign(win, o), stop())
}

// runCampaign prepares the target and runs the campaign the flags
// describe.
func runCampaign(win core.WinSize, o options) error {
	target, err := o.target()
	if err != nil {
		return err
	}
	if o.model == "stuckat" {
		return runStuckAt(target, win, o)
	}
	return runFlip(target, win, o)
}

// target builds the program and prepares it without the -disable tiers.
func (o *options) target() (*core.Target, error) {
	b, err := prog.ByName(o.prog)
	if err != nil {
		return nil, err
	}
	p, err := b.Build()
	if err != nil {
		return nil, err
	}
	return core.NewTargetOpts(o.prog, p, core.TargetOptions{Disable: o.disable})
}

// engine returns the campaign the flags describe for one fault model.
// Without -journal it has no Service and runs on the engine's in-memory
// fast path.
func (o *options) engine(target *core.Target, m core.FaultModel) *core.Engine {
	e := &core.Engine{
		Target:        target,
		Model:         m,
		N:             o.n,
		Seed:          o.seed,
		HangFactor:    o.hang,
		Workers:       o.workers,
		Classifier:    o.classifier,
		FailurePolicy: o.onfail,
	}
	if o.journal != "" {
		e.Service = &core.Service{Dir: o.journal, Resume: o.resume}
	}
	return e
}

func runFlip(target *core.Target, win core.WinSize, o options) error {
	cfg := core.Config{MaxMBF: o.mbf, Win: win}
	m := &core.RegisterModel{Spec: &core.CampaignSpec{Technique: o.technique, Config: cfg}}
	res, err := o.engine(target, m).Run()
	if err != nil {
		return err
	}
	title := fmt.Sprintf("Campaign: %s, %s, %s, n=%d, seed=%d%s (golden: %d dyn instr, %d/%d candidates)",
		target.Name, o.technique, cfg, res.N(), o.seed, classifierTag(o.classifier),
		target.GoldenDyn, target.ReadCands, target.WriteCands)
	return renderCampaign(title, res)
}

func runStuckAt(target *core.Target, win core.WinSize, o options) error {
	m := &core.StuckAtModel{Spec: &core.StuckAtSpec{Window: win}}
	res, err := o.engine(target, m).Run()
	if err != nil {
		return err
	}
	title := fmt.Sprintf("Campaign: %s, stuck-at (bit held for a %s-instruction read window), n=%d, seed=%d%s (golden: %d dyn instr, %d read candidates)",
		target.Name, win, res.N(), o.seed, classifierTag(o.classifier),
		target.GoldenDyn, target.ReadCands)
	return renderCampaign(title, res)
}

// runStatus writes to w a list of every campaign journal in the directory
// with its shard progress and the running tally over checkpointed shards,
// and a note naming each journal file it could not list and why.
func runStatus(w io.Writer, dir string) error {
	infos, err := core.InspectDir(dir)
	if err != nil {
		return err
	}
	if len(infos) == 0 {
		fmt.Fprintf(w, "no campaign journals in %s\n", dir)
		return nil
	}
	t := &report.Table{
		Title: fmt.Sprintf("Campaign journals in %s", dir),
		Columns: []string{"campaign", "n", "seed", "shards done/leased/pending",
			"experiments", "SDC so far", "0->1", "1->0"},
	}
	var extra []string
	for _, in := range infos {
		if in.Err != nil {
			extra = append(extra, fmt.Sprintf("not listed: %v", in.Err))
			continue
		}
		st := in.Status
		sdc := "-"
		if st.Tally.N() > 0 {
			sdc = stats.FormatPct(st.Tally.SDCPct()) + "%"
		}
		t.AddRow(in.Meta.Model,
			strconv.Itoa(in.Meta.N),
			strconv.FormatUint(in.Meta.Seed, 10),
			fmt.Sprintf("%d/%d/%d of %d", st.Done, st.Leased, st.Pending, st.Shards),
			fmt.Sprintf("%d/%d", st.ExperimentsDone, st.ExperimentsTotal),
			sdc,
			dirCell(&st.Tally, core.Dir0to1),
			dirCell(&st.Tally, core.Dir1to0))
		// In-flight shards with live leases: who holds what, and for how
		// much longer, instead of lumping them in with pending shards.
		for _, l := range st.Leases {
			extra = append(extra, fmt.Sprintf("%s seed=%d: shard %d leased by %s, expires in %s (heartbeats extend it)",
				in.Meta.Model, in.Meta.Seed, l.Shard, l.Worker, l.Remaining.Round(100*time.Millisecond)))
		}
		if st.Quarantined > 0 {
			extra = append(extra, fmt.Sprintf("%s seed=%d: %d experiment(s) quarantined — run the campaign front-end for the repro records",
				in.Meta.Model, in.Meta.Seed, st.Quarantined))
		}
	}
	t.Notes = append(t.Notes,
		"The tally covers checkpointed shards only; shard merging is exact, so percentages are true partial results.",
		"0->1 / 1->0 split checkpointed experiments by flip direction (count and SDC%); journals written before the dimensional tally show \"-\".")
	t.Notes = append(t.Notes, extra...)
	return t.Render(w)
}

// dirCell renders one flip-direction column of the status table:
// "count (sdc%)" over the checkpointed shards, or "-" when the journal
// predates the dimensional tally (its breakdown is empty).
func dirCell(tl *core.Tally, dir core.FlipDir) string {
	if tl.Dims.N() == 0 {
		return "-"
	}
	n := tl.Dims.DirTotal(dir)
	return fmt.Sprintf("%d (%s%%)", n, stats.FormatPct(stats.Percent(tl.Dims.DirCount(core.OutcomeSDC, dir), n)))
}

// classifierTag renders the campaign title's classifier suffix: empty
// for the default exact comparison, ", classifier=<name>" otherwise.
func classifierTag(c core.Classifier) string {
	if c == nil {
		return ""
	}
	if name := c.Name(); name != "exact" {
		return ", classifier=" + name
	}
	return ""
}

// renderCampaign prints the shared outcome table every model's campaign
// reports.
func renderCampaign(title string, res *core.EngineResult) error {
	t := &report.Table{
		Title:   title,
		Columns: []string{"outcome", "count", "percent", "95% CI"},
	}
	for _, o := range core.Outcomes() {
		t.AddRow(o.String(),
			strconv.Itoa(res.Count(o)),
			stats.FormatPct(res.Pct(o)),
			"±"+stats.FormatPct(res.CI95(o)))
	}
	// The Internal row appears only when the Quarantine policy actually
	// poisoned experiments: healthy output is byte-identical to builds
	// that predate the supervision layer.
	if n := res.Count(core.OutcomeInternal); n > 0 {
		t.AddRow(core.OutcomeInternal.String(),
			strconv.Itoa(n),
			stats.FormatPct(res.Pct(core.OutcomeInternal)),
			"±"+stats.FormatPct(res.CI95(core.OutcomeInternal)))
	}
	t.AddRow("Detection", "", stats.FormatPct(res.DetectionPct()), "")
	t.Notes = append(t.Notes,
		fmt.Sprintf("error resilience: %.3f", res.Resilience()),
		fmt.Sprintf("mean activated errors per experiment: %.2f", float64(res.ActivatedTotal)/float64(res.N())),
		fmt.Sprintf("early exits: %d converged with the golden run", res.Converged))
	for _, q := range res.Quarantined {
		failure := ""
		if n := len(q.Errs); n > 0 {
			failure = q.Errs[n-1]
		}
		if q.Panic != "" {
			failure = fmt.Sprintf("panic: %s [stack %s]", q.Panic, q.Stack)
		}
		t.Notes = append(t.Notes, fmt.Sprintf(
			"quarantined: experiment %d (seed %d) failed every tier (%s): %s",
			q.Index, q.Seed, strings.Join(q.Tiers, "->"), failure))
	}
	return t.Render(os.Stdout)
}
