package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// layerMetrics reads the per-layer metrics of one traced pass from its
// spans and from the counts the library's results report. The run-level
// metrics (tracing overhead, Go runtime, fail_frac) are added by the
// caller. Every metric is present on every workload; one whose layer a
// workload does not exercise reads 0.
func layerMetrics(p *pass, tr *tracer) map[string]metric {
	var dur [numSpanNames]int64
	for _, s := range tr.spans {
		dur[s.name] += s.dur()
	}
	sec := func(n spanName) metric { return metric{float64(dur[n]) / 1e9, "s"} }
	st := &tr.st
	m := map[string]metric{
		"prog.build_s":         sec(spBuild),
		"liveness.analyze_s":   sec(spAnalyze),
		"liveness.predict_s":   sec(spPredict),
		"liveness.pruned_frac": {ratio(st.pruned, st.predicts), "ratio"},

		"core.target_s":      sec(spTarget),
		"core.snapshots":     {float64(p.snapshots), "count"},
		"core.experiments":   {float64(p.attempted), "count"},
		"core.plan_s":        sec(spPlan),
		"core.classify_s":    sec(spClassify),
		"core.memo_hit_frac": {ratio(p.memoHits, st.executed), "ratio"},

		"vm.exec_s":           sec(spExec),
		"vm.instr_per_exp":    {ratio(st.instr, uint64(st.executed)), "count"},
		"vm.minstr_per_s":     {float64(st.instr) / 1e6 / (float64(dur[spExec]) / 1e9), "Minstr/s"},
		"vm.resume_skip_frac": {ratio(st.skipped, st.prefix), "ratio"},
		"vm.converged_frac":   {ratio(st.converged, st.executed), "ratio"},
		"vm.compiled_frac":    {ratio(p.compiled, p.programs), "ratio"},

		"core.journal.bind_s":       sec(spBind),
		"core.journal.claim_s":      sec(spClaim),
		"core.journal.checkpoint_s": sec(spCheckpoint),
		"core.journal.results_s":    sec(spResults),
		"core.journal.checkpoints":  {float64(st.checkpts), "count"},
		"core.journal.claim_waits":  {float64(st.claimWaits), "count"},
		"core.journal.bytes":        {float64(p.journalBytes), "bytes"},
		"core.memo.open_s":          sec(spMemoOpen),
		"core.memo.flush_s":         sec(spMemoFlush),
		"core.memo.bytes":           {float64(p.memoBytes), "bytes"},

		"memfault.campaign_s": sec(spMemfault),

		"study.run_s":         sec(spStudyRun),
		"study.transitions_s": sec(spTransitions),
		"study.ablations_s":   sec(spAblations),
		"study.render_s":      sec(spRender),
	}
	if dur[spExec] == 0 {
		m["vm.minstr_per_s"] = metric{0, "Minstr/s"}
	}
	timing(m, "core.campaign", "ms", 1e6, st.campaignNs)
	timing(m, "vm.exec", "us", 1e3, st.execNs)
	gap, total := unattributed(tr.spans)
	m["trace.unattributed_frac"] = metric{float64(gap) / float64(max(total, 1)), "ratio"}
	return m
}

// share is one layer's part of a traced pass's self time.
type share struct {
	layer string
	self  time.Duration
	frac  float64
}

// layerShares charges each span's self time to its layer and returns
// the layers by falling share. Spans of parallel workers each count, so
// the total is busy time rather than wall time. The root's self time is
// the benchmark's own, reported as layer "bench".
func layerShares(spans []span) []share {
	self := selfTimes(spans)
	by := map[string]int64{}
	var total int64
	for i, s := range spans {
		by[spanInfo[s.name].layer] += self[i]
		total += self[i]
	}
	var out []share
	for layer, ns := range by {
		out = append(out, share{layer: layer, self: time.Duration(ns), frac: float64(ns) / float64(max(total, 1))})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].self > out[b].self })
	return out
}

// writeSpans writes spans as tab-separated lines: name, start and end in
// ns since the trace began, parent index (-1 for the root) and id.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# name\tstart_ns\tend_ns\tparent\tid\n")
	for _, s := range spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\n", s.name, s.start, s.end, s.parent, s.id)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
