package study

import (
	"fmt"
	"sync"

	"multiflip/internal/analysis"
	"multiflip/internal/core"
	"multiflip/internal/report"
	"multiflip/internal/stats"
)

// TransitionResult holds the §IV-C3 transition study for one program and
// technique: every single-bit experiment re-run under the program's
// worst-case multi-bit configuration, with the first error pinned to the
// single-bit location.
type TransitionResult struct {
	Program string
	Tech    core.Technique
	// Best is the Table III configuration used for the multi-bit reruns.
	Best analysis.ConfigSDC
	// Matrix is the single→multi outcome transition matrix (Fig 6).
	Matrix *analysis.TransitionMatrix
	// TranI is P(multi = SDC | single = Detection) in percent.
	TranI float64
	// TranII is P(multi = SDC | single = Benign) in percent.
	TranII float64
	// Prunable is the share of single-bit locations the pruning excludes
	// (single outcome Detection or SDC) in percent.
	Prunable float64
}

// RunTransitions performs the transition study for every program and
// technique in the study. It reuses the recorded single-bit campaigns and
// runs one pinned multi-bit campaign each. The result is memoized on the
// Study: the first call pays for the campaigns, every later call (e.g. a
// CSV export after the markdown render) returns the same maps.
func (s *Study) RunTransitions() (map[string]map[core.Technique]*TransitionResult, error) {
	s.transOnce.Do(func() {
		s.trans, s.transErr = s.runTransitions()
	})
	return s.trans, s.transErr
}

func (s *Study) runTransitions() (map[string]map[core.Technique]*TransitionResult, error) {
	out := make(map[string]map[core.Technique]*TransitionResult, len(s.Programs))
	var (
		mu   sync.Mutex // guards out while the reruns fill it
		jobs []job
	)
	for _, name := range s.Programs {
		d := s.Data[name]
		out[name] = make(map[core.Technique]*TransitionResult, 2)
		for _, tech := range core.Techniques() {
			single := d.Single[tech]
			if len(single.Experiments) == 0 {
				return nil, fmt.Errorf("study: %s %s: single-bit campaign has no records", name, tech)
			}
			best, err := s.BestConfig(name, tech)
			if err != nil {
				return nil, err
			}
			log := fmt.Sprintf("%s %s: transition rerun at %s", name, tech, best.Config)
			jobs = append(jobs, job{log: log, run: func(workers int, start func(*core.Engine)) error {
				pins := make([]core.Pin, len(single.Experiments))
				for i, e := range single.Experiments {
					pins[i] = core.Pin{Cand: e.Cand, Bit: e.Bit}
				}
				m := &core.RegisterModel{Spec: &core.CampaignSpec{Technique: tech, Config: best.Config, Pins: pins}}
				seed := campaignSeed(s.Opts.Seed, name+"/tran", tech, best.Config)
				e := s.Opts.engine(d.Target, m, len(pins), seed)
				e.Workers, e.Record = workers, true
				start(e)
				pinned, err := e.Run()
				if err != nil {
					return err
				}
				matrix, err := analysis.Transitions(single.Experiments, pinned.Experiments)
				if err != nil {
					return err
				}
				mu.Lock()
				out[name][tech] = &TransitionResult{
					Program:  name,
					Tech:     tech,
					Best:     best,
					Matrix:   matrix,
					TranI:    matrix.TransitionI(),
					TranII:   matrix.TransitionII(),
					Prunable: analysis.PrunableShare(single.Experiments),
				}
				mu.Unlock()
				return nil
			}})
		}
	}
	if err := runJobs(s.Opts.Workers, s.Opts.Log, jobs); err != nil {
		return nil, err
	}
	return out, nil
}

// TableIV reproduces Table IV: the likelihood of Transition I
// (Detection→SDC) and Transition II (Benign→SDC) per program and
// technique.
func (s *Study) TableIV(trans map[string]map[core.Technique]*TransitionResult) *report.Table {
	t := &report.Table{
		Title: "Table IV: likelihood of Transition I (Detection->SDC) and Transition II (Benign->SDC)",
		Columns: []string{"program",
			"read Tran. I", "read Tran. II",
			"write Tran. I", "write Tran. II",
			"prunable (read)", "prunable (write)"},
	}
	for _, name := range s.Programs {
		read := trans[name][core.InjectOnRead]
		write := trans[name][core.InjectOnWrite]
		t.AddRow(name,
			stats.FormatPct(read.TranI)+"%", stats.FormatPct(read.TranII)+"%",
			stats.FormatPct(write.TranI)+"%", stats.FormatPct(write.TranII)+"%",
			stats.FormatPct(read.Prunable)+"%", stats.FormatPct(write.Prunable)+"%")
	}
	t.Notes = append(t.Notes,
		"Multi-bit reruns use each program's Table III configuration with the first error pinned to the single-bit location (Fig 6 transitions).",
		"Prunable = share of single-bit experiments ending in Detection or SDC; the §IV-C3 pruning injects only into Benign locations.")
	return t
}
