package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// usage is what one timed section cost the process: wall and CPU time,
// heap allocation, and the garbage collector's share.
type usage struct {
	Wall    float64 // seconds
	CPU     float64 // user+sys seconds of the whole process
	Bytes   uint64  // heap bytes allocated
	Mallocs uint64  // heap objects allocated
	NumGC   uint32
	GCCPU   float64 // seconds of CPU the collector used
}

type reading struct {
	at      time.Time
	cpu     time.Duration
	bytes   uint64
	mallocs uint64
	numGC   uint32
	gcCPU   float64
}

var gcCPUSample = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}

// read snapshots the process counters. ReadMemStats stops the world, so
// it is called only between timed sections, never inside one.
func read() reading {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	metrics.Read(gcCPUSample)
	r := reading{
		at:      time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		bytes:   ms.TotalAlloc,
		mallocs: ms.Mallocs,
		numGC:   ms.NumGC,
	}
	if gcCPUSample[0].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = gcCPUSample[0].Value.Float64()
	}
	return r
}

func (a reading) until(b reading) usage {
	return usage{
		Wall:    b.at.Sub(a.at).Seconds(),
		CPU:     (b.cpu - a.cpu).Seconds(),
		Bytes:   b.bytes - a.bytes,
		Mallocs: b.mallocs - a.mallocs,
		NumGC:   b.numGC - a.numGC,
		GCCPU:   b.gcCPU - a.gcCPU,
	}
}

// measure runs fn between two readings, after a collection so that one
// section's garbage is not charged to the next.
func measure(fn func()) usage {
	runtime.GC()
	before := read()
	fn()
	return before.until(read())
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM);
// 0 where /proc is not available.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

func heapSysMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapSys) / (1 << 20)
}

// median returns the middle of vs (mean of the two middles for an even
// count); 0 for none.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(vs, n=4) computes them (the exclusive method),
// which is how the acceptance driver measures run-to-run spread. With
// fewer than two values both quartiles are the value itself.
func quartiles(vs []float64) (q1, q3 float64) {
	n := len(vs)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return vs[0], vs[0]
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// quantile is the exact nearest-rank q-quantile of an ascending slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// timeOp reports the median nanoseconds per call of fn over batches
// batches of calls calls each, and the heap objects allocated per call.
// Call counts are fixed, not time-boxed, so two commits time the same
// work.
func timeOp(batches, calls int, fn func()) (nsPerOp, allocsPerOp float64) {
	fn() // warm caches and lazy set-up outside the timing
	per := make([]float64, batches)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	for b := range per {
		start := time.Now()
		for i := 0; i < calls; i++ {
			fn()
		}
		per[b] = float64(time.Since(start).Nanoseconds()) / float64(calls)
	}
	runtime.ReadMemStats(&ms)
	return median(per), float64(ms.Mallocs-mallocs) / float64(batches*calls)
}
