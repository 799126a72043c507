package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// stopProfiles completes the files -cpuprofile and -memprofile asked for.
// Every way out of the program runs it: main's return and exit.
var stopProfiles = func() {}

// exit is os.Exit once the profiles are complete.
func exit(code int) {
	stopProfiles()
	os.Exit(code)
}

// startProfiles starts a CPU profile into cpuPath and arranges for the
// allocation profile of the whole run to be written to memPath when
// stopProfiles is called; an empty path asks for nothing.
func startProfiles(cpuPath, memPath string) error {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		cpuFile = f
	}
	stopProfiles = func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "gridexp:", err)
			}
		}
		if memPath != "" {
			if err := writeAllocProfile(memPath); err != nil {
				fmt.Fprintln(os.Stderr, "gridexp:", err)
			}
		}
	}
	return nil
}

// writeAllocProfile writes every allocation since the program started
// (pprof's "allocs": -sample_index=alloc_space by default, inuse_* on
// request), after a collection so that the live figures are current.
func writeAllocProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
