package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// profileFlags are -cpuprofile and -memprofile, which every subcommand
// takes: where a run's host time and allocations went is asked of the
// command the user ran, not of a harness rebuilt around it.
type profileFlags struct {
	cpu, mem *string
}

func addProfileFlags(fs *flag.FlagSet) profileFlags {
	return profileFlags{
		cpu: fs.String("cpuprofile", "", "write a CPU profile of the run to this file"),
		mem: fs.String("memprofile", "", "write a heap profile to this file at exit, after a GC"),
	}
}

// profileError reports a profile file that could not be created or written.
type profileError struct {
	flag, path string
	err        error
}

func (e *profileError) Error() string { return fmt.Sprintf("-%s %s: %v", e.flag, e.path, e.err) }
func (e *profileError) Unwrap() error { return e.err }

// start creates the requested files — both now, so a bad -memprofile path
// fails before the run rather than after it — and starts the CPU profile.
// The caller defers stop with the address of its named error result: stop
// ends the CPU profile, writes the heap profile, and reports the first
// failure there unless the run itself already failed.
func (p profileFlags) start() (stop func(*error), err error) {
	var cpu, mem *os.File
	abandon := func(flag, path string, err error) (func(*error), error) {
		for _, f := range []*os.File{cpu, mem} {
			if f != nil {
				f.Close()
			}
		}
		return nil, &profileError{flag, path, err}
	}
	if *p.cpu != "" {
		if cpu, err = os.Create(*p.cpu); err != nil {
			return abandon("cpuprofile", *p.cpu, err)
		}
	}
	if *p.mem != "" {
		if mem, err = os.Create(*p.mem); err != nil {
			return abandon("memprofile", *p.mem, err)
		}
	}
	if cpu != nil {
		if err := pprof.StartCPUProfile(cpu); err != nil {
			return abandon("cpuprofile", *p.cpu, err)
		}
	}
	return func(errp *error) {
		keep := func(flag, path string, err error) {
			if err != nil && *errp == nil {
				*errp = &profileError{flag, path, err}
			}
		}
		if cpu != nil {
			pprof.StopCPUProfile()
			keep("cpuprofile", *p.cpu, cpu.Close())
		}
		if mem != nil {
			runtime.GC() // the profile reports the heap as of the last collection
			keep("memprofile", *p.mem, pprof.WriteHeapProfile(mem))
			keep("memprofile", *p.mem, mem.Close())
		}
	}, nil
}
