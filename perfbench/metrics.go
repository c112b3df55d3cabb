package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// median returns the median of xs (0 for none). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLevels are the percentiles the tail rule chooses among.
var tailLevels = []float64{50, 90, 99, 99.9, 99.99}

// percentile returns the nearest-rank percentile p of sorted and the
// number of samples ranked beyond it.
func percentile(sorted []float64, p float64) (v float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	// The epsilon keeps p/100*n from rounding up past an exact rank.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	return sorted[r-1], n - r
}

// tail applies the reporting rule for timings: the highest percentile
// of tailLevels that has at least ten samples beyond it. With fewer than
// twenty samples no level qualifies and the median is reported, so the
// returned level then reads 50.
func tail(samples []float64) (level, value float64) {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	level = 50
	value, _ = percentile(s, 50)
	for _, l := range tailLevels {
		v, beyond := percentile(s, l)
		if beyond >= 10 {
			level, value = l, v
		}
	}
	return level, value
}

// timing adds the median, the tail-rule percentile, the level chosen and
// the sample count of samples (in ns) under prefix, in unit (nsPerUnit
// ns each).
func timing(m map[string]metric, prefix, unit string, nsPerUnit float64, samplesNs []int64) {
	xs := make([]float64, len(samplesNs))
	for i, v := range samplesNs {
		xs[i] = float64(v) / nsPerUnit
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	p50, _ := percentile(s, 50)
	level, v := tail(xs)
	m[prefix+"_p50_"+unit] = metric{p50, unit}
	m[prefix+"_tail_"+unit] = metric{v, unit}
	m[prefix+"_tail_pct"] = metric{level, "percentile"}
	m[prefix+"_samples"] = metric{float64(len(xs)), "count"}
}

// rssSampler records the peak resident set size of the process while
// it runs, sampling /proc/self/statm every few milliseconds. Without
// procfs it falls back to the process-lifetime peak from getrusage.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	peak atomic.Int64 // bytes
}

const rssPeriod = 5 * time.Millisecond

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s.sample()
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssPeriod)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return
	}
	if b := pages * int64(os.Getpagesize()); b > s.peak.Load() {
		s.peak.Store(b)
	}
}

// stopMB stops sampling and returns the peak in MB (10^6 bytes).
func (s *rssSampler) stopMB() float64 {
	close(s.stop)
	<-s.done
	s.sample()
	if s.peak.Load() == 0 {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
			return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports kilobytes
		}
	}
	return float64(s.peak.Load()) / 1e6
}

// gcSample reads the runtime's cumulative allocation and CPU counters.
type gcSample struct {
	totalAlloc    uint64
	gcCPU, allCPU float64
}

func readGC() gcSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	g := gcSample{totalAlloc: ms.TotalAlloc}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		g.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		g.allCPU = s[1].Value.Float64()
	}
	return g
}

// processCPU returns the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuTicks reads the aggregate steal and total ticks from /proc/stat.
func cpuTicks() (steal, total uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		// Guest time (fields 9 and 10) is already counted in user time.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// envLine describes the machine a run measured on, with the host's CPU
// steal over the run, so a noisy run set can be told from a slower
// program.
func envLine(workers int, steal0, total0 uint64) string {
	steal1, total1 := cpuTicks()
	stealFrac := 0.0
	if total1 > total0 {
		stealFrac = float64(steal1-steal0) / float64(total1-total0)
	}
	return fmt.Sprintf("env nproc=%d gomaxprocs=%d workers=%d go=%s cpu=%q steal_ticks=%d steal_frac=%.4f",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), workers, runtime.Version(), cpuModel(),
		steal1-steal0, stealFrac)
}
