// Command study runs the paper's full experimental design and regenerates
// every table and figure: 182 campaigns per program (91 per technique) at
// a configurable experiment count, plus the §IV-C3 transition study and
// the simulator-choice ablations.
//
// Usage:
//
//	study -n 500                        # all 15 programs, full Table I grid
//	study -n 10000                      # paper scale (hours of CPU time)
//	study -progs CRC32,basicmath -n 200 # subset
//	study -quick                        # reduced grid for a fast smoke run
//	study -quick -cpuprofile cpu.prof   # profile the run
//
// Output goes to stdout; use -o to write a file (EXPERIMENTS.md is
// generated this way).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"multiflip/internal/core"
	"multiflip/internal/memfault"
	"multiflip/internal/profiling"
	"multiflip/internal/study"
	"multiflip/internal/vm"
)

func main() {
	var (
		n           = flag.Int("n", 500, "experiments per campaign (paper: 10000)")
		seed        = flag.Uint64("seed", 1, "study seed")
		progs       = flag.String("progs", "", "comma-separated program subset (empty = all 15)")
		quick       = flag.Bool("quick", false, "reduced grid: max-MBF {2,3,10,30}, win {0,1,4,RND(11-100),1000}")
		transitions = flag.Bool("transitions", true, "run the transition study (Table IV)")
		ablations   = flag.Bool("ablations", true, "run the hang-budget and alignment ablations; they ignore -workers, -classifier, -onfail, -journal and -disable (GOMAXPROCS workers, exact classifier, fail-fast, in memory, every tier on)")
		memfaults   = flag.Bool("memfault", true, "run the memory-word multi-bit fault extension (paper future work); it ignores -workers, -classifier, -onfail and -journal (GOMAXPROCS workers, exact classifier, fail-fast, in memory)")
		stuckat     = flag.Bool("stuckat", true, "run the stuck-at register-fault extension (one campaign per program)")
		stuckwin    = flag.String("stuckwin", "", `stuck-at extension hold window in Table I notation ("100", "11-100"; empty = default)`)
		workers     = flag.Int("workers", 0, "parallel workers, split between the study's concurrently running campaigns (0 = GOMAXPROCS)")
		classifier  = flag.String("classifier", "", `outcome classifier for the grid and transition campaigns: "exact" (default) or "tol:abs=E,rel=E[,word=4|8][,float]"`)
		onfail      = flag.String("onfail", "", `failure policy for experiments failing every supervision tier: "fast" (abort, interrupting the campaigns already running, default) or "quarantine" (poison and keep draining)`)
		journal     = flag.String("journal", "", "journal directory: run campaigns as durable sharded jobs (checkpointed, resumable, multi-process), all journaled in the directory's one log, journal.mfj")
		resume      = flag.Bool("resume", false, "resume journaled campaigns from their last checkpoints (requires -journal)")
		out         = flag.String("o", "", "output file (empty = stdout)")
		csvDir      = flag.String("csv", "", "also write each table as CSV into this directory")
		composition = flag.Bool("composition", false, "only run single-bit campaigns and print the candidate-composition tables")
		verbose     = flag.Bool("v", false, "log campaign progress to stderr")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile of the run to `file`")
		memProfile  = flag.String("memprofile", "", "write an allocation profile of the run to `file`")
	)
	var disable vm.Tiers
	flag.Var(&disable, "disable", "comma-separated speed `tiers` to turn off: snapshots, compile, converge (results are identical)")
	flag.Parse()
	if err := run(params{
		n: *n, seed: *seed, progs: *progs, quick: *quick,
		transitions: *transitions, ablations: *ablations, memfaults: *memfaults,
		composition: *composition, stuckat: *stuckat, stuckwin: *stuckwin,
		workers: *workers, disable: disable,
		classifier: *classifier, onfail: *onfail, journal: *journal, resume: *resume,
		out: *out, csvDir: *csvDir, verbose: *verbose,
		cpuProfile: *cpuProfile, memProfile: *memProfile,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "study:", err)
		os.Exit(1)
	}
}

// params carries the parsed command line.
type params struct {
	n           int
	seed        uint64
	progs       string
	quick       bool
	transitions bool
	ablations   bool
	memfaults   bool
	composition bool
	stuckat     bool
	stuckwin    string
	workers     int
	disable     vm.Tiers
	classifier  string
	onfail      string
	journal     string
	resume      bool
	out         string
	csvDir      string
	verbose     bool
	cpuProfile  string
	memProfile  string
}

// run starts the requested profiles around runOut.
func run(p params) error {
	stop, err := profiling.Start(p.cpuProfile, p.memProfile)
	if err != nil {
		return err
	}
	return errors.Join(runOut(p), stop())
}

// runOut resolves the output writer and delegates to runTo. Writing to a
// file checks the Close error explicitly: EXPERIMENTS.md is produced via
// -o, and a full disk surfacing only in Close must not yield a silently
// truncated report with exit code 0.
func runOut(p params) error {
	if p.out == "" {
		return runTo(os.Stdout, p)
	}
	f, err := os.Create(p.out)
	if err != nil {
		return err
	}
	if err := runTo(f, p); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing %s: %w", p.out, err)
	}
	return nil
}

func runTo(w io.Writer, p params) error {
	if p.resume && p.journal == "" {
		return fmt.Errorf("-resume needs -journal DIR (there is no journal to resume from)")
	}
	n, seed := p.n, p.seed
	opts := study.Options{
		N:          n,
		Seed:       seed,
		Workers:    p.workers,
		Disable:    p.disable,
		NoStuckAt:  !p.stuckat,
		JournalDir: p.journal,
		Resume:     p.resume,
	}
	cl, err := core.ParseClassifier(p.classifier)
	if err != nil {
		return fmt.Errorf("-classifier: %w", err)
	}
	opts.Classifier = cl
	policy, err := core.ParseFailurePolicy(p.onfail)
	if err != nil {
		return fmt.Errorf("-onfail: %w", err)
	}
	opts.OnFailure = policy
	if p.stuckwin != "" {
		win, err := core.ParseStuckWindow(p.stuckwin)
		if err != nil {
			return fmt.Errorf("-stuckwin: %w", err)
		}
		opts.StuckAtWindow = win
	}
	if p.progs != "" {
		// Tolerate spaces around the commas: "CRC32, basicmath" names the
		// same programs as "CRC32,basicmath".
		for _, name := range strings.Split(p.progs, ",") {
			if name = strings.TrimSpace(name); name != "" {
				opts.Programs = append(opts.Programs, name)
			}
		}
		if len(opts.Programs) == 0 {
			// An empty Programs list means "all 15"; a -progs value that
			// trims to nothing must fail fast, not launch the full study.
			return fmt.Errorf("-progs %q names no programs", p.progs)
		}
	}
	if p.quick {
		opts.MaxMBFs = []int{2, 3, 10, 30}
		opts.WinSizes = []core.WinSize{
			core.Win(0), core.Win(1), core.Win(4), core.WinRange(11, 100), core.Win(1000),
		}
	}
	if p.verbose {
		opts.Log = os.Stderr
	}

	if p.composition {
		// Composition only needs the profile and the single-bit campaigns;
		// shrink the multi-bit grid to its minimum and skip the extension.
		opts.MaxMBFs = []int{2}
		opts.WinSizes = []core.WinSize{core.Win(0)}
		opts.NoStuckAt = true
		s, err := study.Run(opts)
		if err != nil {
			return err
		}
		for _, tech := range core.Techniques() {
			if err := s.CandidateComposition(tech).Render(w); err != nil {
				return err
			}
		}
		return nil
	}

	s, err := study.Run(opts)
	if err != nil {
		return err
	}
	if err := s.RenderAll(w, p.transitions); err != nil {
		return err
	}
	if p.csvDir != "" {
		// The transition campaigns RenderAll already ran are memoized on
		// the study, so the CSV export reuses their results.
		if err := s.WriteCSVDir(p.csvDir, p.transitions); err != nil {
			return err
		}
	}
	if p.ablations {
		// Hang budgets and alignment traps only matter for rare outcome
		// flips, so the ablations use a larger sample than the grid.
		ablN := 10 * n
		if ablN > 5000 {
			ablN = 5000
		}
		abl, err := study.HangFactorAblation("qsort", core.InjectOnRead, ablN, seed, []uint64{2, 10, 100})
		if err != nil {
			return err
		}
		if err := abl.Render(w); err != nil {
			return err
		}
		for _, tech := range core.Techniques() {
			abl, err = study.AlignmentAblation("CRC32", tech, ablN, seed)
			if err != nil {
				return err
			}
			if err := abl.Render(w); err != nil {
				return err
			}
		}
	}
	if p.memfaults {
		for _, name := range []string{"CRC32", "sha"} {
			target := s.Data[name]
			if target == nil {
				continue
			}
			tb, err := memfault.SweepTable(target.Target, []int{1, 2, 3, 4, 8}, n, seed)
			if err != nil {
				return err
			}
			if err := tb.Render(w); err != nil {
				return err
			}
		}
	}
	return nil
}
