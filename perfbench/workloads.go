package main

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"strings"
	"time"

	"multiflip/internal/core"
	"multiflip/internal/ir"
	"multiflip/internal/liveness"
	"multiflip/internal/memfault"
	"multiflip/internal/prog"
	"multiflip/internal/report"
	"multiflip/internal/study"
	"multiflip/internal/vm"
	"multiflip/internal/xrand"
)

// Workload sizes. Each pass is one whole workload run; a timed run
// repeats passes for its --seconds and reports medians.
const (
	table1N = 1000 // experiments per table1 campaign
	studyN  = 40   // experiments per study-journaled campaign
)

// cmd/study's memfault sweep: its programs and bits-per-word rows.
var (
	studyMemProgs = []string{"CRC32", "sha"}
	studyMemBits  = []int{1, 2, 3, 4, 8}
)

// workload is one named benchmark input; NOTES.md records why each was
// chosen.
type workload struct {
	name string
	// pass runs the workload once.
	pass func(p *pass) error
}

var workloads = []workload{
	{name: "table1", pass: table1Pass},
	{name: "study-journaled", pass: studyPass},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// deriveSeed derives an independent stream seed for label from the
// workload seed; the same (seed, label) always gives the same value.
func deriveSeed(seed uint64, label string) uint64 {
	h := seed ^ 0x7065726662656e63 // "perfbenc"
	for _, c := range []byte(label) {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return xrand.SplitMix64(&h)
}

// table1Configs are the table1 clusters: single-bit, same-register
// (win 0), narrow (RND 2-10) and wide (max-MBF 30, RND 101-1000).
func table1Configs() []core.Config {
	return []core.Config{
		core.SingleBit(),
		{MaxMBF: 2, Win: core.Win(0)},
		{MaxMBF: 3, Win: core.WinRange(2, 10)},
		{MaxMBF: 30, Win: core.WinRange(101, 1000)},
	}
}

// studyOptions is the study-journaled grid: cmd/study's -quick grid over
// all 15 programs, with stuck-at campaigns at their default.
func studyOptions(seed uint64, workers int, dir string) study.Options {
	return study.Options{
		N:        studyN,
		Seed:     deriveSeed(seed, "study"),
		MaxMBFs:  []int{2, 3, 10, 30},
		WinSizes: []core.WinSize{core.Win(0), core.Win(1), core.Win(4), core.WinRange(11, 100), core.Win(1000)},
		Workers:  workers,
		// Quarantine counts a failing experiment instead of aborting.
		OnFailure:  core.Quarantine,
		JournalDir: dir,
	}
}

// pass is the state of one workload pass.
type pass struct {
	seed    uint64
	workers int
	tr      *tracer // nil when untraced
	root    int32
	dir     string // scratch directory for this pass, inside the checkout
	replica bool   // also drive the study's campaign shapes through core.Engine

	rssMB     float64       // peak resident memory during the pass
	setup     time.Duration // program build plus core.NewTarget
	campaign  time.Duration // campaign phase (setup excluded)
	extra     time.Duration // measurement-only work, excluded from wall times
	completed int           // experiments completed
	attempted int
	failed    int
	problems  []string
	campaigns uint64

	digest        hash.Hash // outcome tallies of the workload proper
	replicaDigest hash.Hash // outcome tallies of the study replica

	// Per-layer counts read from the library's results.
	programs, compiled, snapshots int
	memoHits, staticPruned        int
	journalBytes, memoBytes       int64
}

func (p *pass) problem(format string, args ...any) {
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

// built is one prepared program.
type built struct {
	name   string
	prog   *ir.Program
	target *core.Target
}

// prepare builds each program and profiles it with core.NewTarget: the
// set-up every campaign front-end performs. The traced pass also times
// liveness.Analyze on each program, which NewTarget runs internally;
// that call is measurement only.
func (p *pass) prepare(names []string, build func(name string) (*ir.Program, error)) ([]built, error) {
	start := time.Now()
	out := make([]built, len(names))
	for i, name := range names {
		sp := p.tr.begin(spBuild, p.root, uint64(i))
		pr, err := build(name)
		p.tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("build %s: %w", name, err)
		}
		sp = p.tr.begin(spTarget, p.root, uint64(i))
		t, err := core.NewTarget(name, pr)
		p.tr.end(sp)
		if err != nil {
			return nil, err
		}
		out[i] = built{name: name, prog: pr, target: t}
	}
	p.setup += time.Since(start)
	for _, b := range out {
		p.programs++
		if vm.Compiled(b.prog) {
			p.compiled++
		}
		p.snapshots += len(b.target.Snapshots)
	}
	if p.tr != nil {
		start := time.Now()
		for i, b := range out {
			sp := p.tr.begin(spAnalyze, p.root, uint64(i))
			liveness.Analyze(b.prog)
			p.tr.end(sp)
		}
		p.extra += time.Since(start)
	}
	return out, nil
}

func buildSuite(name string) (*ir.Program, error) {
	b, err := prog.ByName(name)
	if err != nil {
		return nil, err
	}
	return b.Build()
}

// run executes one campaign of the workload proper; see runIn.
func (p *pass) run(label string, e *core.Engine, name spanName) *core.EngineResult {
	return p.runIn(label, e, name, p.digest, nil)
}

// runIn executes one campaign on the engine under the Quarantine policy,
// with the pass's wrappers when traced, then checks it and folds it into
// h. With j set, the campaign runs journaled: its journal and its
// program's shared memo are opened before and closed after the run, as
// the engine does for a core.Service naming a directory.
func (p *pass) runIn(label string, e *core.Engine, name spanName, h hash.Hash, j *journaled) *core.EngineResult {
	id := p.campaigns
	p.campaigns++
	sp := p.tr.begin(name, p.root, id)
	e.Workers = p.workers
	e.FailurePolicy = core.Quarantine
	e.Model = p.tr.model(e.Model, sp)
	e.Classifier = p.tr.classifier()
	var (
		res *core.EngineResult
		err error
	)
	if j != nil {
		res, err = p.runJournaled(e, sp, id, j)
	} else {
		res, err = e.Run()
	}
	p.tr.end(sp)
	if err != nil {
		p.attempted += e.N
		p.failed += e.N
		p.problem("%s: %v", label, err)
		return nil
	}
	p.fold(h, label, &res.Tally, res.CrashActivated[:], res.TrapCounts[:], len(res.Quarantined), e.N)
	p.memoHits += res.MemoHits
	p.staticPruned += res.StaticPruned
	return res
}

// runJournaled opens the campaign's journal file and the program's memo
// file, runs the engine through a core.Service holding both, and closes
// them, timing each call as a child of the campaign span.
func (p *pass) runJournaled(e *core.Engine, campaign int32, id uint64, j *journaled) (*core.EngineResult, error) {
	sp := p.tr.begin(spMemoOpen, campaign, id)
	memo, err := core.OpenSharedMemo(j.memo)
	p.tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = p.tr.begin(spJournalOpen, campaign, id)
	jf, err := core.OpenFileJournal(filepath.Join(j.dir, fmt.Sprintf("campaign-%04d.mfj", id)))
	p.tr.end(sp)
	if err != nil {
		return nil, err
	}
	e.Service = &core.Service{Dir: j.dir, Journal: p.tr.journal(jf, campaign), Memo: memo}
	res, runErr := e.Run()
	sp = p.tr.begin(spMemoFlush, campaign, id)
	memoErr := memo.Close()
	p.tr.end(sp)
	sp = p.tr.begin(spJournalClose, campaign, id)
	closeErr := jf.Close()
	p.tr.end(sp)
	if runErr != nil {
		return nil, runErr
	}
	if memoErr != nil {
		return nil, memoErr
	}
	return res, closeErr
}

// fold checks one campaign's tally against its size and folds every
// scheduling-independent outcome count into h: Counts, Dims and the
// crash and trap histograms. Converged and MemoHits depend on which
// worker ran first, so they stay out.
func (p *pass) fold(h hash.Hash, label string, t *core.Tally, crash, traps []int, quarantined, n int) {
	p.attempted += n
	p.completed += n
	p.failed += quarantined
	if t.N() != n {
		p.problem("%s: tally sums to %d, want %d", label, t.N(), n)
	}
	dims, err := json.Marshal(t.Dims)
	if err != nil {
		p.problem("%s: %v", label, err)
	}
	fmt.Fprintf(h, "%s|%v|%s|%v|%v\n", label, t.Counts, dims, crash, traps)
}

func digestOf(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil))[:16] }

// table1Pass: register campaigns over all 15 Table II programs.
func table1Pass(p *pass) error {
	progs, err := p.prepare(prog.Names(), buildSuite)
	if err != nil {
		return err
	}
	start := time.Now()
	for _, b := range progs {
		for _, tech := range core.Techniques() {
			for _, cfg := range table1Configs() {
				label := fmt.Sprintf("%s/%s/%s", b.name, tech, cfg)
				spec := &core.CampaignSpec{Target: b.target, Technique: tech, Config: cfg}
				p.run(label, &core.Engine{
					Target: b.target,
					Model:  &core.RegisterModel{Spec: spec},
					N:      table1N,
					Seed:   deriveSeed(p.seed, "table1/"+label),
				}, spCampaign)
			}
		}
	}
	p.campaign = time.Since(start)
	return nil
}

// studyPass: the cmd/study pipeline with a fresh journal directory,
// followed (in trace runs) by the study replica.
func studyPass(p *pass) error {
	// study.Run builds and profiles its programs itself; the set-up is
	// timed separately here over the same 15 programs.
	progs, err := p.prepare(prog.Names(), buildSuite)
	if err != nil {
		return err
	}
	dir := filepath.Join(p.dir, "journal")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	start := time.Now()
	if err := p.studyPipeline(dir); err != nil {
		return err
	}
	pipeline := time.Since(start)
	p.campaign = pipeline - p.setup
	// The pipeline builds its own targets; the separately timed set-up
	// above is measurement only.
	p.extra += p.setup
	p.journalBytes, p.memoBytes = dirBytes(dir)
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if p.replica {
		rdir := filepath.Join(p.dir, "replica")
		if err := os.RemoveAll(rdir); err != nil {
			return err
		}
		if err := p.studyReplica(progs, rdir); err != nil {
			return err
		}
		jb, mb := dirBytes(rdir)
		p.journalBytes += jb
		p.memoBytes += mb
		return os.RemoveAll(rdir)
	}
	return nil
}

// studyPipeline runs what cmd/study runs with -journal and -quick: the
// campaign grid with stuck-at, the transition study, the rendered report,
// the three ablations and the memfault sweep.
func (p *pass) studyPipeline(dir string) error {
	opts := studyOptions(p.seed, p.workers, dir)
	sp := p.tr.begin(spStudyRun, p.root, 0)
	s, err := study.Run(opts)
	p.tr.end(sp)
	if err != nil {
		return err
	}
	sp = p.tr.begin(spTransitions, p.root, 0)
	trans, err := s.RunTransitions()
	p.tr.end(sp)
	if err != nil {
		return err
	}
	var rendered bytes.Buffer
	sp = p.tr.begin(spRender, p.root, 0)
	err = s.RenderAll(&rendered, true)
	p.tr.end(sp)
	if err != nil {
		return err
	}
	for _, want := range []string{"Table I", "Table II", "Table III", "Table IV", "Stuck-at"} {
		if !strings.Contains(rendered.String(), want) {
			p.problem("study report lacks %q", want)
		}
	}
	for _, name := range s.Programs {
		d := s.Data[name]
		for _, tech := range core.Techniques() {
			r := d.Single[tech]
			p.fold(p.digest, fmt.Sprintf("%s/%s/single", name, tech), &r.Tally, r.CrashActivated[:], r.TrapCounts[:], len(r.Quarantined), opts.N)
			for _, r := range d.Multi[tech] {
				p.fold(p.digest, fmt.Sprintf("%s/%s/%s", name, tech, r.Spec.Config), &r.Tally, r.CrashActivated[:], r.TrapCounts[:], len(r.Quarantined), opts.N)
			}
			tr := trans[name][tech]
			p.attempted += opts.N
			p.completed += opts.N
			fmt.Fprintf(p.digest, "%s/%s/transitions|%v\n", name, tech, tr.Matrix.Counts)
		}
		r := d.StuckAt
		p.fold(p.digest, name+"/stuck-at", &r.Tally, r.CrashActivated[:], r.TrapCounts[:], len(r.Quarantined), opts.N)
	}

	// The ablations and the memfault sweep return rendered tables of
	// outcome percentages, which are scheduling-independent.
	ablN := min(10*opts.N, 5000)
	var tables bytes.Buffer
	ablate := func(n int, f func() (*report.Table, error)) error {
		sp := p.tr.begin(spAblations, p.root, 0)
		t, err := f()
		p.tr.end(sp)
		if err != nil {
			return err
		}
		p.attempted += n
		p.completed += n
		return t.Render(&tables)
	}
	if err := ablate(3*ablN, func() (*report.Table, error) {
		return study.HangFactorAblation("qsort", core.InjectOnRead, ablN, opts.Seed, []uint64{2, 10, 100})
	}); err != nil {
		return err
	}
	for _, tech := range core.Techniques() {
		if err := ablate(2*ablN, func() (*report.Table, error) {
			return study.AlignmentAblation("CRC32", tech, ablN, opts.Seed)
		}); err != nil {
			return err
		}
	}
	if err := ablate(4*ablN, func() (*report.Table, error) {
		return study.LivenessPredictionTable([]string{"qsort", "CRC32"}, ablN, opts.Seed)
	}); err != nil {
		return err
	}
	for _, name := range studyMemProgs {
		sp := p.tr.begin(spMemfault, p.root, 0)
		t, err := memfault.SweepTable(s.Data[name].Target, studyMemBits, opts.N, opts.Seed)
		p.tr.end(sp)
		if err != nil {
			return err
		}
		p.attempted += len(studyMemBits) * opts.N
		p.completed += len(studyMemBits) * opts.N
		if err := t.Render(&tables); err != nil {
			return err
		}
	}
	fmt.Fprintf(p.digest, "tables|%s", tables.Bytes())
	return nil
}

// studyReplica drives the study grid's campaign shapes (the same
// programs, quick grid, stuck-at window, N, worker count and journal
// layout) through core.Engine. study.Run builds its own core.Service, so
// a wrapper cannot reach the journal and memo calls of its campaigns;
// the replica makes the same calls where the wrappers can time them.
// Its seeds are its own, so its digest is compared only between its
// traced and untraced passes.
func (p *pass) studyReplica(progs []built, dir string) error {
	opts := studyOptions(p.seed, p.workers, dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, b := range progs {
		j := journaled{dir: dir, memo: filepath.Join(dir, "memo-"+b.name+".mfj")}
		for _, tech := range core.Techniques() {
			cfgs := []core.Config{core.SingleBit()}
			for _, m := range opts.MaxMBFs {
				for _, w := range opts.WinSizes {
					cfgs = append(cfgs, core.Config{MaxMBF: m, Win: w})
				}
			}
			for _, cfg := range cfgs {
				label := fmt.Sprintf("%s/%s/%s", b.name, tech, cfg)
				spec := &core.CampaignSpec{Target: b.target, Technique: tech, Config: cfg}
				p.runIn(label, &core.Engine{
					Target: b.target,
					Model:  &core.RegisterModel{Spec: spec},
					N:      opts.N,
					Seed:   deriveSeed(p.seed, "replica/"+label),
					// The study records single-bit campaigns for its
					// transition reruns.
					Record: cfg.IsSingle(),
				}, spCampaign, p.replicaDigest, &j)
			}
		}
		label := b.name + "/stuck-at"
		p.runIn(label, &core.Engine{
			Target: b.target,
			Model:  &core.StuckAtModel{Spec: &core.StuckAtSpec{Window: core.Win(core.DefaultStuckWindow)}},
			N:      opts.N,
			Seed:   deriveSeed(p.seed, "replica/"+label),
		}, spCampaign, p.replicaDigest, &j)
	}
	return nil
}

// journaled names where a replica campaign keeps its journal and the
// program's shared memo file.
type journaled struct{ dir, memo string }

// dirBytes sums the sizes of the campaign journals and memo files in dir.
func dirBytes(dir string) (journal, memo int64) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			continue
		}
		switch {
		case strings.HasPrefix(e.Name(), "campaign-"):
			journal += info.Size()
		case strings.HasPrefix(e.Name(), "memo-"):
			memo += info.Size()
		}
	}
	return journal, memo
}
