package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// memMark is a runtime.MemStats and getrusage reading taken at a pass
// boundary.
type memMark struct {
	totalAlloc uint64
	numGC      uint32
	pauseNs    uint64
	cpu        time.Duration
}

func markMem() memMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memMark{ms.TotalAlloc, ms.NumGC, ms.PauseTotalNs, processCPU()}
}

// memDelta is what the process allocated, collected and spent on the
// CPU between two marks.
type memDelta struct {
	allocBytes uint64
	gcCycles   uint32
	gcPauseNs  uint64
	cpu        time.Duration
}

func (m memMark) since(start memMark) memDelta {
	return memDelta{m.totalAlloc - start.totalAlloc, m.numGC - start.numGC, m.pauseNs - start.pauseNs, m.cpu - start.cpu}
}

// processCPU is the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's maximum resident set size so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuMark is the host's /proc/stat CPU time counters: the busy and
// stolen jiffies of all CPUs. Steal is time the hypervisor ran someone
// else while this machine had work; it slows every timing of a run
// without being the program's doing.
type cpuMark struct{ total, steal uint64 }

func markCPU() (cpuMark, bool) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuMark{}, false
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuMark{}, false
	}
	var m cpuMark
	for i, s := range f[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return cpuMark{}, false
		}
		m.total += v
		if i == 7 {
			m.steal = v
		}
	}
	return m, true
}

// stealShare is the share of CPU time stolen between two marks.
func stealShare(a, b cpuMark) float64 {
	return ratio(float64(b.steal-a.steal), float64(b.total-a.total))
}
