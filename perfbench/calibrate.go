package main

import "time"

// The host a benchmark runs on may change speed from one minute to the
// next. A shared VM loses time to the hypervisor running its
// neighbours (counted as stolen), and its CPU is slowed by them with
// no time counted at all. Set-up is timed once per set-up, so a host
// that slows down half-way through a set of runs moves setup_s more
// than any change to the program. setup_s therefore takes the host out
// of it twice: it is the CPU time the process spends setting up, which
// leaves out stolen time, scaled by how much faster or slower than
// refNominal a reference loop whose work never changes ran around that
// set-up.

// refNominal is about what one reference loop takes on an unloaded
// 2-vCPU VM (the machine the bounds in BENCHMARK.json were set on), so
// setup_s is roughly in CPU seconds of that machine.
const refNominal = 20 * time.Millisecond

// refIters and refWords size the reference loop: a xorshift walk that
// reads and writes random words of a buffer the size of a core's L2
// cache, so it spends its time on arithmetic and on memory, as set-up
// does, while staying clear of the page faults and memory traffic that
// make a loop over a larger buffer vary from run to run.
const (
	refIters = 1 << 21
	refWords = 1 << 15 // 256 KiB
)

var refBuf []uint64

// refSink keeps the loop's result alive.
var refSink uint64

// refLoop runs the reference loop once and returns its wall time.
func refLoop() time.Duration {
	if refBuf == nil {
		refBuf = make([]uint64, refWords)
		for i := range refBuf {
			refBuf[i] = uint64(i)
		}
	}
	start := time.Now()
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < refIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (refWords - 1)
		refBuf[j] += x
		x += refBuf[(j*31)&(refWords-1)]
	}
	refSink = x
	return time.Since(start)
}

// hostScale is refNominal over the reference loop's time: below 1 on a
// host slower than the nominal one. It runs the loop three times and
// keeps the fastest, which is least disturbed by a passing stall: like
// the CPU time it scales, it leaves stolen time out.
func hostScale() float64 {
	best := refLoop()
	for i := 0; i < 2; i++ {
		best = min(best, refLoop())
	}
	return float64(refNominal) / float64(best)
}
