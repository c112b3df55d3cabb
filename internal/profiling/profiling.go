// Package profiling writes the CPU and allocation profiles that the
// command-line front ends take with -cpuprofile and -memprofile, through
// runtime/pprof. Read them with `go tool pprof`.
package profiling

import (
	"errors"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start creates the profile files that are named (an empty name skips
// that profile) and starts the CPU profile, so a bad path fails before
// any work runs. The returned stop ends the CPU profile and writes the
// allocation profile: every sampled allocation since the process
// started, by count and by bytes.
func Start(cpuFile, memFile string) (stop func() error, err error) {
	var cpu, mem *os.File
	if memFile != "" {
		if mem, err = os.Create(memFile); err != nil {
			return nil, err
		}
	}
	if cpuFile != "" {
		if cpu, err = os.Create(cpuFile); err == nil {
			if err = pprof.StartCPUProfile(cpu); err != nil {
				cpu.Close()
			}
		}
		if err != nil {
			if mem != nil {
				mem.Close()
			}
			return nil, err
		}
	}
	return func() error {
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			errs = append(errs, cpu.Close())
		}
		if mem != nil {
			// A collection first, so the profile's statistics are current.
			runtime.GC()
			errs = append(errs, pprof.Lookup("allocs").WriteTo(mem, 0), mem.Close())
		}
		return errors.Join(errs...)
	}, nil
}
