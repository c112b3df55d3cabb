// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed time, checks the outputs, and prints one JSON
// result as the last line of its standard output:
//
//	bash perfbench/run.sh --workload table1 --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics, medians over
// repeated whole-workload passes. With --trace 1 it holds the per-layer
// metrics, read from spans this package records around the library's
// public calls during a traced pass, next to an untraced pass of the
// same seed for the tracing overhead. NOTES.md describes the workloads
// and what each metric should move.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// minPasses is the fewest timed passes a run makes, however short its
// --seconds.
const minPasses = 3

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one benchmark invocation.
type bench struct {
	w       workload
	seed    uint64
	workers int
	dir     string
	log     io.Writer // per-pass lines
	passes  int

	attempted, failed int
	problems          []string
	digests           map[string]string // label -> the digest every pass must reproduce
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: table1 or study-journaled")
	seed := fs.Uint64("seed", 1, "workload seed: every input derives from it")
	seconds := fs.Int("seconds", 20, "measuring time in seconds")
	trace := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (table1, study-journaled), --seconds >= 1, --trace 0|1\n")
		return 2
	}
	dir := filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	b := &bench{
		w:       w,
		seed:    *seed,
		workers: min(runtime.NumCPU(), runtime.GOMAXPROCS(0)),
		dir:     dir,
		digests: make(map[string]string),
	}
	steal0, total0 := cpuTicks()
	deadline := time.Now().Add(time.Duration(*seconds) * time.Second)
	var (
		metrics map[string]metric
		err     error
	)
	// Output is buffered until the run ends; the deferred flush covers
	// the error returns, and the result's own flush is checked.
	out := bufio.NewWriter(stdout)
	defer out.Flush()
	b.log = out
	if *trace == 1 {
		metrics, err = b.traced(deadline)
	} else {
		metrics, err = b.timed(deadline)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, label := range []string{"outcomes", "replica"} {
		if d, ok := b.digests[label]; ok {
			fmt.Fprintf(out, "digest %s %s seed=%d %s\n", w.name, label, b.seed, d)
		}
	}
	for _, pr := range b.problems {
		fmt.Fprintf(out, "check failed: %s\n", pr)
	}
	fmt.Fprintf(out, "fail_frac %.6f (%d of %d experiments)\n", ratio(b.failed, b.attempted), b.failed, b.attempted)
	fmt.Fprintln(out, envLine(b.workers, steal0, total0))
	res := result{
		Correct:   len(b.problems) == 0 && b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", line)
	if err := out.Flush(); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// ratio returns a/b, or 0 when b is 0.
func ratio[T int | uint64](a, b T) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// addRunMetrics adds the per-layer metrics of the run as a whole: the
// tracing overhead (median traced over median untraced pass wall time),
// the Go runtime's allocation and GC CPU share over the last traced
// pass, and the share of experiments that failed.
func addRunMetrics(m map[string]metric, plain, traced []float64, g0, g1 gcSample, failed, attempted int) {
	overhead := 0.0
	if len(plain) > 0 && len(traced) > 0 {
		overhead = median(traced)/median(plain) - 1
	}
	gcFrac := 0.0
	if g1.allCPU > g0.allCPU {
		gcFrac = (g1.gcCPU - g0.gcCPU) / (g1.allCPU - g0.allCPU)
	}
	m["trace.overhead_frac"] = metric{overhead, "ratio"}
	m["go.alloc_mb"] = metric{float64(g1.totalAlloc-g0.totalAlloc) / 1e6, "MB"}
	m["go.gc_cpu_frac"] = metric{gcFrac, "ratio"}
	m["fail_frac"] = metric{ratio(failed, attempted), "ratio"}
}

// pass runs the workload once from scratch, traced when tr is set, and
// checks that its outcome digests match every earlier pass of the run.
func (b *bench) pass(tr *tracer, replica bool) (*pass, time.Duration, error) {
	// Start every pass from a collected heap returned to the system, so
	// one pass's garbage and resident memory are not charged to the next.
	debug.FreeOSMemory()
	p := &pass{
		seed:          b.seed,
		workers:       b.workers,
		tr:            tr,
		dir:           b.dir,
		replica:       replica,
		digest:        sha256.New(),
		replicaDigest: sha256.New(),
	}
	rss := startRSS()
	cpu0 := processCPU()
	start := time.Now()
	p.root = tr.begin(spPass, -1, 0)
	err := b.w.pass(p)
	tr.end(p.root)
	wall := time.Since(start)
	cpu := processCPU() - cpu0
	p.rssMB = rss.stopMB()
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", b.w.name, err)
	}
	b.passes++
	fmt.Fprintf(b.log, "pass %d traced=%t wall=%.3fs setup=%.3fs campaign=%.3fs experiments=%d exp/s=%.1f rss=%.1fMB cpu=%.3fs\n",
		b.passes, tr != nil, (wall - p.extra).Seconds(), p.setup.Seconds(), p.campaign.Seconds(), p.completed,
		float64(p.completed)/p.campaign.Seconds(), p.rssMB, cpu.Seconds())
	b.attempted += p.attempted
	b.failed += p.failed
	b.problems = append(b.problems, p.problems...)
	digests := map[string]string{"outcomes": digestOf(p.digest)}
	if replica {
		digests["replica"] = digestOf(p.replicaDigest)
	}
	for label, d := range digests {
		if prev, ok := b.digests[label]; ok && prev != d {
			b.problems = append(b.problems, fmt.Sprintf("%s digest %s differs from an earlier pass's %s", label, d, prev))
		}
		b.digests[label] = d
	}
	return p, wall, nil
}

// timed makes passes until the deadline and reports the end-to-end
// metrics as medians over them. A slow first pass (pools and caches
// filling) is one sample among many, so no pass is discarded.
func (b *bench) timed(deadline time.Time) (map[string]metric, error) {
	var rate, wall, setup, rss []float64
	for len(wall) < minPasses || time.Now().Before(deadline) {
		p, w, err := b.pass(nil, false)
		if err != nil {
			return nil, err
		}
		rate = append(rate, float64(p.completed)/p.campaign.Seconds())
		wall = append(wall, (w - p.extra).Seconds())
		setup = append(setup, p.setup.Seconds())
		rss = append(rss, p.rssMB)
	}
	return endToEnd(rate, wall, setup, rss), nil
}

// endToEnd names the end-to-end metrics: medians of the per-pass
// campaign rate, wall time, set-up time and peak resident memory.
func endToEnd(rate, wall, setup, rss []float64) map[string]metric {
	return map[string]metric{
		"exp_per_s":  {median(rate), "experiments/s"},
		"wall_s":     {median(wall), "s"},
		"setup_s":    {median(setup), "s"},
		"max_rss_mb": {median(rss), "MB"},
	}
}

// traced makes pairs of untraced and traced passes until the deadline,
// and reports the per-layer metrics of the last traced pass with the
// tracing overhead over the pairs. It prints each layer's share of the
// traced self time and writes the spans out.
func (b *bench) traced(deadline time.Time) (map[string]metric, error) {
	replica := b.w.name == "study-journaled"
	var (
		plain, traced []float64
		last          *pass
		lastTr        *tracer
		g0, g1        gcSample
		lastWall      time.Duration
	)
	for len(traced) < 1 || time.Now().Before(deadline) {
		u, w, err := b.pass(nil, replica)
		if err != nil {
			return nil, err
		}
		plain = append(plain, (w - u.extra).Seconds())
		tr := newTracer()
		g0 = readGC()
		p, w, err := b.pass(tr, replica)
		if err != nil {
			return nil, err
		}
		g1 = readGC()
		traced = append(traced, (w - p.extra).Seconds())
		last, lastTr, lastWall = p, tr, w
	}
	m := layerMetrics(last, lastTr)
	addRunMetrics(m, plain, traced, g0, g1, b.failed, b.attempted)
	for _, sh := range layerShares(lastTr.spans) {
		fmt.Fprintf(b.log, "share %-12s %6.2f%%  %.3fs\n", sh.layer, 100*sh.frac, sh.self.Seconds())
	}
	fmt.Fprintf(b.log, "traced pass %.3fs, %d spans\n", lastWall.Seconds(), len(lastTr.spans))
	path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.spans", b.w.name, b.seed))
	if err := writeSpans(path, lastTr.spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(b.log, "spans written to %s\n", path)
	return m, nil
}
