package main

import (
	"time"
)

// The host this benchmark runs on is shared: its speed steps by 20-50%
// over tens of seconds, with and without hypervisor steal, and a run of
// a minute cannot average that out. So the closed loop stops every
// calEvery for a short burst of a fixed calibration kernel, which is
// the benchmark's own code and so the same on every revision of the
// program. The gated figures are the measured ones scaled to a host
// that runs the kernel refKernelPerS times per second, slice by slice
// of the loop: a slower moment of the host slows the kernel in the
// same proportion as the daemon, and the ratio stays. The host-time
// figures are printed next to them on every run and reported by the
// traced run as host.* metrics.
const (
	// calEvery is the loop time between calibration bursts.
	calEvery = 100 * time.Millisecond
	// calCalls is how many kernel calls one burst makes: about 10 ms,
	// a tenth of calEvery.
	calCalls = 64
	// refKernelPerS is the reference host's kernel speed: about what a
	// 2-vCPU Intel Xeon cloud instance does when its neighbours are
	// quiet.
	refKernelPerS = 7000
)

// burst is one calibration burst of a closed loop.
type burst struct {
	Start, End time.Time
	Calls      int
}

// calibrate runs one burst of the kernel.
func calibrate() burst {
	b := burst{Start: time.Now(), Calls: calCalls}
	for i := 0; i < calCalls; i++ {
		kernel()
	}
	b.End = time.Now()
	return b
}

// kernelSpeed is the kernel's speed, calls per second, over bursts.
func kernelSpeed(bursts ...burst) float64 {
	var calls, secs float64
	for _, b := range bursts {
		calls += float64(b.Calls)
		secs += b.End.Sub(b.Start).Seconds()
	}
	if secs <= 0 {
		return refKernelPerS
	}
	return calls / secs
}

var kernelSink uint64

// kernel is the calibration work: shifts and table lookups over a few
// small heap objects, the mix of the simulator's own hot loops, so that
// it slows with the host where the daemon does. It allocates only its
// tables: a kernel that allocated as it ran slowed more than the
// daemon on a busy host.
func kernel() {
	var acc uint64
	var nodes [32][]byte
	for i := range nodes {
		nodes[i] = make([]byte, 96)
	}
	x := uint64(0x9E3779B97F4A7C15)
	for step := 0; step < 20000; step++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		nd := nodes[x%32]
		nd[(x>>8)%96] ^= byte(x)
		acc += uint64(nd[(x>>16)%96])
	}
	kernelSink += acc
}

// timeline maps a closed loop's wall-clock instants to its active
// time: the seconds since the loop started, less the calibration
// bursts that ended before the instant. Requests never overlap bursts.
type timeline struct {
	start  time.Time
	bursts []burst // in time order
}

func (tl timeline) active(t time.Time) float64 {
	off := t.Sub(tl.start)
	for _, b := range tl.bursts {
		if b.End.After(t) {
			break
		}
		off -= b.End.Sub(b.Start)
	}
	return off.Seconds()
}

// kernelRates returns the kernel's speed (calls per second) in each of
// n equal slices of a loop's active time, each from the bursts that
// began in it; a slice without a burst gets the whole loop's speed.
func kernelRates(tl timeline, activeWall float64, n int) []float64 {
	in := make([][]burst, n)
	for _, b := range tl.bursts {
		k := sliceOf(tl.active(b.Start), activeWall, n)
		in[k] = append(in[k], b)
	}
	rates := make([]float64, n)
	for k := range rates {
		if len(in[k]) > 0 {
			rates[k] = kernelSpeed(in[k]...)
		} else {
			rates[k] = kernelSpeed(tl.bursts...)
		}
	}
	return rates
}

// sliceOf is the slice, of n equal slices of wall seconds, that holds
// the instant at seconds.
func sliceOf(at, wall float64, n int) int {
	if wall <= 0 {
		return 0
	}
	return min(n-1, max(0, int(at/(wall/float64(n)))))
}
