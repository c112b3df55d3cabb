package study

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunJobsShares checks the split of workers between jobs: every job
// runs once, no more than workers jobs or engine workers are busy at
// once, a short list still gets all the workers, and a single worker
// runs the list in order.
func TestRunJobsShares(t *testing.T) {
	for _, tc := range []struct{ workers, jobs int }{
		{1, 5}, {2, 43}, {3, 7}, {4, 3}, {8, 2}, {3, 2},
	} {
		var (
			mu            sync.Mutex
			running, busy int
			order, shares []int
		)
		jobs := make([]job, tc.jobs)
		for i := range jobs {
			jobs[i] = job{run: func(each int) error {
				mu.Lock()
				running++
				busy += each
				if running > tc.workers || busy > tc.workers {
					t.Errorf("workers=%d jobs=%d: %d jobs on %d engine workers at once", tc.workers, tc.jobs, running, busy)
				}
				mu.Unlock()
				time.Sleep(time.Millisecond)
				mu.Lock()
				running--
				busy -= each
				order = append(order, i)
				shares = append(shares, each)
				mu.Unlock()
				return nil
			}}
		}
		if err := runJobs(tc.workers, nil, jobs); err != nil {
			t.Fatal(err)
		}
		if len(order) != tc.jobs {
			t.Errorf("workers=%d: %d of %d jobs ran", tc.workers, len(order), tc.jobs)
		}
		total := 0
		for _, each := range shares {
			total += each
			if tc.jobs >= tc.workers && each != 1 {
				t.Errorf("workers=%d jobs=%d: a job got %d engine workers, want 1", tc.workers, tc.jobs, each)
			}
		}
		if tc.jobs < tc.workers && total != tc.workers {
			t.Errorf("workers=%d jobs=%d: shares %v, want them to sum to the workers", tc.workers, tc.jobs, shares)
		}
		if tc.workers == 1 {
			for i, j := range order {
				if i != j {
					t.Errorf("workers=1 ran the jobs in order %v", order)
					break
				}
			}
		}
	}
}

// TestRunJobsLogsInListOrder checks that progress lines keep list order
// while jobs of uneven length overlap.
func TestRunJobsLogsInListOrder(t *testing.T) {
	var (
		log  bytes.Buffer
		want []string
		jobs []job
	)
	for i := range 30 {
		j := job{run: func(int) error {
			time.Sleep(time.Duration(i%4) * time.Millisecond)
			return nil
		}}
		if i%3 == 0 {
			j.log = fmt.Sprintf("batch %d", i/3)
			want = append(want, j.log)
		}
		jobs = append(jobs, j)
	}
	if err := runJobs(3, &log, jobs); err != nil {
		t.Fatal(err)
	}
	if got := strings.Split(strings.TrimSpace(log.String()), "\n"); strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("log %q, want %q", got, want)
	}
}

// TestRunJobsFirstErrorInListOrder checks fail-fast: the error of the
// earliest failed job wins even when a later job fails first, and no job
// starts, or logs its line, after a failure.
func TestRunJobsFirstErrorInListOrder(t *testing.T) {
	first, second := errors.New("job 0"), errors.New("job 1")
	failed := make(chan struct{})
	var (
		late atomic.Bool
		log  bytes.Buffer
	)
	jobs := []job{
		{run: func(int) error { <-failed; return first }},
		{run: func(int) error { close(failed); return second }},
		{log: "late", run: func(int) error { late.Store(true); return nil }},
	}
	if err := runJobs(2, &log, jobs); err != first {
		t.Errorf("error %v, want %v", err, first)
	}
	if late.Load() || log.Len() != 0 {
		t.Errorf("a job started after a failure (log %q)", log.String())
	}
}

// TestRunJobsReleasesJobs checks that a job, and whatever it captured,
// can be freed once it has run while later jobs still run: this is what
// frees a program's Service with its last campaign.
func TestRunJobsReleasesJobs(t *testing.T) {
	freed := make(chan struct{})
	jobs := []job{
		capturing(freed),
		{run: func(int) error {
			for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
				runtime.GC()
				select {
				case <-freed:
					return nil
				case <-time.After(10 * time.Millisecond):
				}
			}
			return errors.New("the first job's captures were never freed")
		}},
	}
	if err := runJobs(1, nil, jobs); err != nil {
		t.Fatal(err)
	}
}

// capturing returns a job holding the only reference to an object whose
// finalizer closes freed.
func capturing(freed chan struct{}) job {
	obj := new([1024]byte)
	runtime.SetFinalizer(obj, func(*[1024]byte) { close(freed) })
	return job{run: func(int) error {
		obj[0]++
		return nil
	}}
}
