package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"

	"multiflip/internal/core"
)

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	spans := []span{
		{start: 0, end: 100, parent: -1},  // 0: root
		{start: 10, end: 40, parent: 0},   // 1: child
		{start: 30, end: 60, parent: 0},   // 2: child overlapping 1 (a second worker)
		{start: 90, end: 120, parent: 0},  // 3: child running past the root's end
		{start: 15, end: 20, parent: 1},   // 4: grandchild under 1
		{start: 18, end: 25, parent: 1},   // 5: grandchild overlapping 4
		{start: 200, end: 210, parent: 3}, // 6: grandchild outside its parent
	}
	got := selfTimes(spans)
	// root: 100 minus the union [10,60) ∪ [90,100) of its children.
	// 1: 30 minus the union [15,25). 3: 30, its child lies outside it.
	want := []int64{40, 20, 30, 30, 5, 7, 10}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	gap, total := unattributed(spans)
	if gap != 40 || total != 100 {
		t.Fatalf("unattributed = %d of %d, want 40 of 100", gap, total)
	}
}

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // unsorted input
		}
		return xs
	}
	for _, c := range []struct {
		n            int
		level, value float64
	}{
		{19, 50, 10},           // too few samples for any level: the median
		{20, 50, 10},           // p50 has exactly ten beyond it
		{100, 90, 90},          // p99 would have one beyond it
		{999, 90, 900},         // p99 would have nine beyond it
		{1000, 99, 990},        // p99 has ten beyond it
		{100000, 99.99, 99990}, // the highest level qualifies
	} {
		level, value := tail(seq(c.n))
		if level != c.level || value != c.value {
			t.Errorf("tail of %d samples = p%v %v, want p%v %v", c.n, level, value, c.level, c.value)
		}
	}
	m := map[string]metric{}
	timing(m, "x", "ms", 1e6, []int64{3e6, 1e6, 2e6})
	if m["x_p50_ms"].Value != 2 || m["x_samples"].Value != 3 || m["x_tail_pct"].Value != 50 {
		t.Errorf("timing = %v", m)
	}
}

var (
	metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	metricUnitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validMetric reports whether a metric name and unit fit the character
// sets and lengths BENCHMARK.json allows.
func validMetric(name, unit string) bool {
	return metricNameRE.MatchString(name) && metricUnitRE.MatchString(unit)
}

// benchmarkJSON is the repository's benchmark description.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestMetricNames checks that every metric the benchmark prints has a
// valid name and unit, and that BENCHMARK.json lists exactly those
// metrics, with the same units, and exactly these workloads.
func TestMetricNames(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}

	e2e := endToEnd(nil, nil, nil, nil)
	layers := layerMetrics(&pass{}, newTracer())
	addRunMetrics(layers, nil, nil, gcSample{}, gcSample{}, 0, 0)
	seen := map[string]bool{}
	for name, m := range e2e {
		if !validMetric(name, m.Unit) {
			t.Errorf("invalid end-to-end metric %q [%s]", name, m.Unit)
		}
		seen[name] = true
	}
	for name, m := range layers {
		if !validMetric(name, m.Unit) {
			t.Errorf("invalid per-layer metric %q [%s]", name, m.Unit)
		}
		if seen[name] {
			t.Errorf("metric %q is both end-to-end and per-layer", name)
		}
	}

	listed := map[string]string{}
	for _, m := range bj.EndToEnd {
		listed[m.Name] = m.Unit
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end %q: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
	}
	if !sameMetrics(e2e, listed) {
		t.Errorf("BENCHMARK.json end_to_end %v, benchmark prints %v", sortedKeys(listed), sortedKeys(e2e))
	}
	if listed["setup_s"] != "s" {
		t.Errorf("BENCHMARK.json lacks setup_s in s")
	}
	listed = map[string]string{}
	for _, m := range bj.PerLayer {
		listed[m.Name] = m.Unit
	}
	if !sameMetrics(layers, listed) {
		t.Errorf("BENCHMARK.json per_layer %v, benchmark prints %v", sortedKeys(listed), sortedKeys(layers))
	}

	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not the benchmark's", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, benchmark has %d", names, len(workloads))
	}
}

func sameMetrics(got map[string]metric, listed map[string]string) bool {
	if len(got) != len(listed) {
		return false
	}
	for name, m := range got {
		if unit, ok := listed[name]; !ok || unit != m.Unit {
			return false
		}
	}
	return true
}

func sortedKeys[V any](m map[string]V) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func TestSeedDerivation(t *testing.T) {
	label := "table1/CRC32/inject-on-read/single-bit"
	if deriveSeed(7, label) != deriveSeed(7, label) {
		t.Fatal("deriveSeed is not a function of its arguments")
	}
	if deriveSeed(7, label) == deriveSeed(8, label) || deriveSeed(7, label) == deriveSeed(7, label+"x") {
		t.Fatal("deriveSeed ignores its seed or label")
	}
}

// TestTracedCampaignMatches runs one small campaign untraced and traced
// and checks that the wrappers change no outcome and time every
// experiment.
func TestTracedCampaignMatches(t *testing.T) {
	tg, err := buildSuite("CRC32")
	if err != nil {
		t.Fatal(err)
	}
	target, err := core.NewTarget("CRC32", tg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 300
	digest := func(tr *tracer) (string, *pass) {
		p := &pass{workers: 2, tr: tr, digest: sha256.New()}
		p.root = tr.begin(spPass, -1, 0)
		for _, cfg := range []core.Config{core.SingleBit(), {MaxMBF: 3, Win: core.WinRange(2, 10)}} {
			spec := &core.CampaignSpec{Target: target, Technique: core.InjectOnRead, Config: cfg}
			p.run(cfg.String(), &core.Engine{Target: target, Model: &core.RegisterModel{Spec: spec}, N: n, Seed: 5}, spCampaign)
		}
		tr.end(p.root)
		if len(p.problems) > 0 {
			t.Fatal(p.problems)
		}
		return digestOf(p.digest), p
	}
	plain, _ := digest(nil)
	tr := newTracer()
	traced, p := digest(tr)
	if plain != traced {
		t.Fatalf("traced digest %s, untraced %s", traced, plain)
	}
	st := tr.st
	if st.predicts != 2*n || st.executed+p.staticPruned != 2*n || len(st.execNs) != st.executed {
		t.Fatalf("predicts %d, executed %d, pruned %d, exec samples %d; want %d experiments",
			st.predicts, st.executed, p.staticPruned, len(st.execNs), 2*n)
	}
	if st.pruned != p.staticPruned {
		t.Fatalf("wrapper counted %d pruned, engine %d", st.pruned, p.staticPruned)
	}
	if len(tr.inflight) != 0 || len(tr.classified) != 0 {
		t.Fatalf("%d planned and %d classified experiments never recorded", len(tr.inflight), len(tr.classified))
	}
}
