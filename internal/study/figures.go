package study

import (
	"fmt"
	"strconv"

	"multiflip/internal/analysis"
	"multiflip/internal/core"
	"multiflip/internal/ir"
	"multiflip/internal/prog"
	"multiflip/internal/report"
	"multiflip/internal/stats"
	"multiflip/internal/vm"
)

// TableI reproduces the paper's Table I: the max-MBF and win-size values
// that define the error-space clusters.
func TableI() *report.Table {
	t := &report.Table{
		Title:   "Table I: max-MBF and win-size values",
		Columns: []string{"max-MBF index", "max-MBF value", "win-size index", "win-size value"},
	}
	ms := core.StandardMaxMBF()
	ws := core.StandardWinSizes()
	rows := len(ms)
	if len(ws) > rows {
		rows = len(ws)
	}
	for i := 0; i < rows; i++ {
		mIdx, mVal, wIdx, wVal := "", "", "", ""
		if i < len(ms) {
			mIdx, mVal = fmt.Sprintf("m%d", i+1), strconv.Itoa(ms[i])
		}
		if i < len(ws) {
			wIdx, wVal = fmt.Sprintf("w%d", i+1), ws[i].String()
		}
		t.AddRow(mIdx, mVal, wIdx, wVal)
	}
	return t
}

// TableII reproduces Table II: the benchmark programs with their
// candidate-instruction counts for both techniques.
func (s *Study) TableII() *report.Table {
	t := &report.Table{
		Title: "Table II: selected benchmark programs",
		Columns: []string{"program", "suite", "package",
			"inject-on-read candidates", "inject-on-write candidates", "description"},
	}
	for _, name := range s.Programs {
		d := s.Data[name]
		b, err := prog.ByName(name)
		if err != nil {
			continue
		}
		t.AddRow(name, b.Suite, b.Package,
			strconv.FormatUint(d.Target.ReadCands, 10),
			strconv.FormatUint(d.Target.WriteCands, 10),
			b.Desc)
	}
	t.Notes = append(t.Notes,
		"Candidate counts come from this repository's IR profile; the paper's counts reflect LLVM IR of the C sources.",
		"Inject-on-read exceeds inject-on-write everywhere because stores and branches have no destination register.")
	return t
}

// Figure1 reproduces Fig 1 for one technique: the outcome classification
// of the single bit-flip campaigns with 95% confidence intervals.
func (s *Study) Figure1(tech core.Technique) *report.Table {
	t := &report.Table{
		Title: fmt.Sprintf("Figure 1 (%s): single bit-flip outcome classification (%%)", tech),
		Columns: []string{"program", "Benign", "HWException", "Hang",
			"NoOutput", "Detection", "SDC"},
	}
	for _, name := range s.Programs {
		r := s.Data[name].Single[tech]
		n := r.N()
		cell := func(o core.Outcome) string {
			return stats.FormatPctCI(r.Pct(o), stats.NormalCI95(r.Count(o), n))
		}
		det := r.Count(core.OutcomeException) + r.Count(core.OutcomeHang) + r.Count(core.OutcomeNoOutput)
		t.AddRow(name,
			cell(core.OutcomeBenign),
			cell(core.OutcomeException),
			cell(core.OutcomeHang),
			cell(core.OutcomeNoOutput),
			stats.FormatPctCI(r.DetectionPct(), stats.NormalCI95(det, n)),
			cell(core.OutcomeSDC))
	}
	t.Notes = append(t.Notes, "Detection = HWException + Hang + NoOutput; error bars are 95% confidence intervals.")
	return t
}

// Figure2 reproduces Fig 2 for one technique: SDC percentage when all
// flips land in the same register (win-size = 0), for max-MBF from 1 (the
// single-bit model) to 30.
func (s *Study) Figure2(tech core.Technique) *report.Table {
	cols := []string{"program", "1"}
	for _, m := range s.Opts.MaxMBFs {
		cols = append(cols, strconv.Itoa(m))
	}
	t := &report.Table{
		Title:   fmt.Sprintf("Figure 2 (%s): SDC%% for multiple flips of the same register (win-size = 0)", tech),
		Columns: cols,
	}
	for _, name := range s.Programs {
		d := s.Data[name]
		row := []string{name, stats.FormatPct(d.Single[tech].SDCPct())}
		for _, m := range s.Opts.MaxMBFs {
			r := d.MultiByConfig(tech, core.Config{MaxMBF: m, Win: core.Win(0)})
			if r == nil {
				row = append(row, "-")
				continue
			}
			row = append(row, stats.FormatPct(r.SDCPct()))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes, "Column headers are max-MBF; the leftmost data column is the single bit-flip model.")
	return t
}

// Figure3 reproduces Fig 3 for one technique: the distribution of
// activated errors before a crash when attempting max-MBF = 30, over all
// win-size values.
func (s *Study) Figure3(tech core.Technique) *report.Table {
	t := &report.Table{
		Title:   fmt.Sprintf("Figure 3 (%s): activated errors before crash, max-MBF = 30 (%% of crashed experiments)", tech),
		Columns: []string{"program", "1-5", "6-10", ">10"},
	}
	maxMBF := s.Opts.MaxMBFs[len(s.Opts.MaxMBFs)-1]
	var all []*core.CampaignResult
	for _, name := range s.Programs {
		d := s.Data[name]
		var rs []*core.CampaignResult
		for _, r := range d.Multi[tech] {
			if r.Spec.Config.MaxMBF == maxMBF {
				rs = append(rs, r)
			}
		}
		all = append(all, rs...)
		shares := analysis.ActivationShares(rs...)
		t.AddRow(name, stats.FormatPct(shares[0]), stats.FormatPct(shares[1]), stats.FormatPct(shares[2]))
	}
	total := analysis.ActivationShares(all...)
	t.AddRow("ALL", stats.FormatPct(total[0]), stats.FormatPct(total[1]), stats.FormatPct(total[2]))
	t.Notes = append(t.Notes,
		fmt.Sprintf("Aggregated over every win-size cluster with max-MBF = %d; crashed = hardware-exception outcomes.", maxMBF))
	return t
}

// Figure45 reproduces Fig 4 (inject-on-read) or Fig 5 (inject-on-write):
// the SDC percentage over the multi-register grid. Rows are (program,
// win-size) pairs; columns run from the single-bit model over every
// max-MBF value.
func (s *Study) Figure45(tech core.Technique) *report.Table {
	figure := "Figure 4"
	if tech == core.InjectOnWrite {
		figure = "Figure 5"
	}
	cols := []string{"program", "win-size", "1"}
	for _, m := range s.Opts.MaxMBFs {
		cols = append(cols, strconv.Itoa(m))
	}
	t := &report.Table{
		Title:   fmt.Sprintf("%s (%s): SDC%% for flips of multiple registers", figure, tech),
		Columns: cols,
	}
	for _, name := range s.Programs {
		d := s.Data[name]
		single := stats.FormatPct(d.Single[tech].SDCPct())
		for _, w := range s.Opts.WinSizes {
			if w.IsZero() {
				continue
			}
			row := []string{name, w.String(), single}
			for _, m := range s.Opts.MaxMBFs {
				r := d.MultiByConfig(tech, core.Config{MaxMBF: m, Win: w})
				if r == nil {
					row = append(row, "-")
					continue
				}
				row = append(row, stats.FormatPct(r.SDCPct()))
			}
			t.AddRow(row...)
		}
	}
	t.Notes = append(t.Notes, "Column headers are max-MBF; column 1 repeats the single bit-flip model per program.")
	return t
}

// CandidateComposition renders the data-type decomposition of each
// program's candidate space next to its single-bit Detection and SDC
// rates. The paper explains outcome differences through exactly this mix:
// address-operand-heavy programs raise more hardware exceptions, while
// data-operand-heavy programs convert errors into SDCs (§IV-A).
func (s *Study) CandidateComposition(tech core.Technique) *report.Table {
	t := &report.Table{
		Title: fmt.Sprintf("Candidate composition (%s): %% of candidate slots by carried data type", tech),
		Columns: []string{"program", "address", "data", "control", "float",
			"other", "Detection%", "SDC%"},
	}
	roles := []ir.SlotRole{ir.RoleAddress, ir.RoleData, ir.RoleControl,
		ir.RoleFloat, ir.RoleOther}
	for _, name := range s.Programs {
		d := s.Data[name]
		counts := d.Target.Roles(tech)
		total := uint64(0)
		for _, c := range counts {
			total += c
		}
		row := []string{name}
		for _, role := range roles {
			pct := 0.0
			if total > 0 {
				pct = 100 * float64(counts[role]) / float64(total)
			}
			row = append(row, stats.FormatPct(pct))
		}
		single := d.Single[tech]
		row = append(row,
			stats.FormatPct(single.DetectionPct()),
			stats.FormatPct(single.SDCPct()))
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"Address shares predict Detection; data/float shares predict Benign+SDC (the paper's §IV-A reasoning made measurable).")
	return t
}

// ExceptionBreakdown renders the composition of the single bit-flip
// campaigns' "Detected by Hardware Exception" category per trap kind,
// matching the paper's enumeration of exception classes (§III-E).
func (s *Study) ExceptionBreakdown(tech core.Technique) *report.Table {
	t := &report.Table{
		Title: fmt.Sprintf("Exception breakdown (%s, single-bit): %% of all experiments per trap kind", tech),
		Columns: []string{"program", "segfault", "misaligned", "arithmetic",
			"abort", "stack-overflow"},
	}
	kinds := []vm.TrapKind{vm.TrapSegfault, vm.TrapMisaligned,
		vm.TrapArithmetic, vm.TrapAbort, vm.TrapStackOverflow}
	for _, name := range s.Programs {
		r := s.Data[name].Single[tech]
		row := []string{name}
		for _, k := range kinds {
			row = append(row, stats.FormatPct(stats.Percent(r.TrapCounts[k], r.N())))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"Segmentation faults dominate, as in the paper: corrupted addresses land outside mapped segments.")
	return t
}

// BestConfig returns Table III's entry for one program and technique: the
// multi-register configuration (win-size > 0) with the highest SDC
// percentage.
func (s *Study) BestConfig(name string, tech core.Technique) (analysis.ConfigSDC, error) {
	d, ok := s.Data[name]
	if !ok {
		return analysis.ConfigSDC{}, fmt.Errorf("study: unknown program %q", name)
	}
	multi := d.MultiWithWin(tech, func(w core.WinSize) bool { return !w.IsZero() })
	return analysis.HighestSDC(multi)
}

// EarlyExit reports the convergence early-termination dividend
// alongside Table I's grid: per program and technique, how many of the
// grid's experiments the runner terminated at a golden-convergence
// boundary, without executing their post-injection tails.
func (s *Study) EarlyExit() *report.Table {
	t := &report.Table{
		Title: "Early termination: golden-convergence rates over the Table I grid",
		Columns: []string{"program",
			"read exps", "read conv%",
			"write exps", "write conv%"},
	}
	for _, name := range s.Programs {
		d := s.Data[name]
		row := []string{name}
		for _, tech := range core.Techniques() {
			n, conv := 0, 0
			add := func(r *core.CampaignResult) {
				if r == nil {
					return
				}
				n += r.N()
				conv += r.Converged
			}
			add(d.Single[tech])
			for _, r := range d.Multi[tech] {
				add(r)
			}
			row = append(row, strconv.Itoa(n),
				stats.FormatPct(stats.Percent(conv, n)))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"conv% = experiments whose injected state reconverged bit-identically with the golden run and terminated with its outcome.")
	return t
}

// StuckAtTable renders the stuck-at extension: the outcome
// classification of the per-program stuck-at campaigns (one register bit
// held at 0/1 across every read in the configured window) with the
// single-bit transient flip campaign's SDC% alongside, so the persistent
// and transient models compare directly.
func (s *Study) StuckAtTable() *report.Table {
	t := &report.Table{
		Title: fmt.Sprintf("Extension: stuck-at register faults (bit held across a %s-instruction read window)",
			s.Opts.StuckAtWindow),
		Columns: []string{"program", "Benign", "HWException", "Hang", "NoOutput",
			"Detection", "SDC", "flip SDC (read)", "mean activated"},
	}
	for _, name := range s.Programs {
		d := s.Data[name]
		r := d.StuckAt
		if r == nil {
			continue
		}
		n := r.N()
		cell := func(o core.Outcome) string {
			return stats.FormatPctCI(r.Pct(o), stats.NormalCI95(r.Count(o), n))
		}
		det := r.Count(core.OutcomeException) + r.Count(core.OutcomeHang) + r.Count(core.OutcomeNoOutput)
		t.AddRow(name,
			cell(core.OutcomeBenign),
			cell(core.OutcomeException),
			cell(core.OutcomeHang),
			cell(core.OutcomeNoOutput),
			stats.FormatPctCI(r.DetectionPct(), stats.NormalCI95(det, n)),
			cell(core.OutcomeSDC),
			stats.FormatPct(d.Single[core.InjectOnRead].SDCPct()),
			fmt.Sprintf("%.2f", float64(r.ActivatedTotal)/float64(n)))
	}
	t.Notes = append(t.Notes,
		"Stuck-at faults are persistent: the bit is re-forced at every read in the window, so a rewrite does not clear the error as it does for transient flips.",
		"Activation counts value-changing reads; zero-activation experiments (the bit already held the stuck value) are Benign by construction.")
	return t
}

// PruningDividend renders the combined effect of the paper's three
// error-space pruning layers (§V): the fraction of the multi-bit
// experiment space that still needs injections per program and technique,
// and the resulting reduction factor.
func (s *Study) PruningDividend() *report.Table {
	const keepMaxMBF = 3 // the paper's RQ3 bound
	t := &report.Table{
		Title: "Pruning dividend: remaining fraction of the multi-bit error space after layers 1-3",
		Columns: []string{"program",
			"read benign%", "read remaining", "read reduction",
			"write benign%", "write remaining", "write reduction"},
	}
	for _, name := range s.Programs {
		d := s.Data[name]
		row := []string{name}
		for _, tech := range core.Techniques() {
			sv := analysis.ComputeSavings(d.Single[tech].Experiments, s.Opts.MaxMBFs, keepMaxMBF)
			row = append(row,
				stats.FormatPct(100*sv.BenignShare),
				fmt.Sprintf("%.3f", sv.Combined),
				fmt.Sprintf("%.0fx", sv.ReductionFactor()))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("Layers 1+2 keep max-MBF <= %d of the %d-value grid; layer 3 keeps only single-bit-Benign first locations (RQ5).", keepMaxMBF, len(s.Opts.MaxMBFs)),
		"Remaining = kept-grid fraction x Benign location share; reduction = 1/remaining.")
	return t
}

// TableIII reproduces Table III: the (max-MBF, win-size) pair with the
// highest SDC percentage per program and technique, among multi-register
// campaigns.
func (s *Study) TableIII() (*report.Table, error) {
	t := &report.Table{
		Title: "Table III: configurations with the highest SDC percentages among multi-register campaigns",
		Columns: []string{"program",
			"read max-MBF", "read win-size", "read SDC%",
			"write max-MBF", "write win-size", "write SDC%"},
	}
	for _, name := range s.Programs {
		read, err := s.BestConfig(name, core.InjectOnRead)
		if err != nil {
			return nil, err
		}
		write, err := s.BestConfig(name, core.InjectOnWrite)
		if err != nil {
			return nil, err
		}
		t.AddRow(name,
			strconv.Itoa(read.Config.MaxMBF), read.Config.Win.String(), stats.FormatPct(read.SDCPct),
			strconv.Itoa(write.Config.MaxMBF), write.Config.Win.String(), stats.FormatPct(write.SDCPct))
	}
	return t, nil
}
