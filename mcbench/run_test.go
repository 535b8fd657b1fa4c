package main

import (
	"math"
	"testing"
	"time"
)

// sevenJobs is seven back-to-back 100-slot sweep jobs over 13 seconds
// of loop time, with a calibration burst of pause before the fourth.
func sevenJobs(pause time.Duration, calls int) loopResult {
	start := time.Unix(0, 0)
	each := 13 * time.Second / 7
	loop := loopResult{Start: start, Wall: 13*time.Second + pause}
	at := start
	for i := 0; i < 7; i++ {
		if i == 3 && pause > 0 {
			loop.Bursts = append(loop.Bursts, burst{Start: at, End: at.Add(pause), Calls: calls})
			at = at.Add(pause)
		}
		loop.Samples = append(loop.Samples, &sample{Job: job{Index: i}, Code: 200, Start: at, End: at.Add(each)})
		at = at.Add(each)
	}
	return loop
}

func executedAll(loop loopResult) *verdict {
	v := &verdict{Counts: map[int]counts{}}
	for _, s := range loop.Samples {
		v.Executed = append(v.Executed, s)
		v.Counts[s.Job.Index] = counts{Slots: 100}
	}
	return v
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-6*math.Abs(b) }

// Each job's work is spread over its own interval, so slice rates are
// not quantized by whole jobs: seven back-to-back jobs across ten
// slices give every slice the same rate.
func TestEndToEndSpreadsWorkOverSlices(t *testing.T) {
	loop := sevenJobs(0, 0)
	f := endToEnd(workloads["sweep"], loop, executedAll(loop), setupFigures{1, 1}, 1)
	if want := 700.0 / 13; !near(f.host["work_per_s"], want) {
		t.Errorf("host work_per_s = %g, want %g", f.host["work_per_s"], want)
	}
}

// A calibration burst is not loop time, and a kernel at half the
// reference speed doubles the reference throughput and halves the
// reference latency.
func TestEndToEndScalesByKernelSpeed(t *testing.T) {
	loop := sevenJobs(time.Second, refKernelPerS/2)
	f := endToEnd(workloads["sweep"], loop, executedAll(loop), setupFigures{1, 1}, 1)
	if want := 700.0 / 13; !near(f.host["work_per_s"], want) {
		t.Errorf("host work_per_s = %g, want %g (the burst counted as loop time?)", f.host["work_per_s"], want)
	}
	if want := 2 * 700.0 / 13; !near(f.refWorkPS, want) {
		t.Errorf("ref_work_per_s = %g, want %g", f.refWorkPS, want)
	}
	got := map[string]float64{}
	for _, m := range f.metrics {
		got[m.Name] = m.Value
	}
	if want := 0.5 * 13e3 / 7; !near(got["ref_latency_p50_ms"], want) {
		t.Errorf("ref_latency_p50_ms = %g, want %g", got["ref_latency_p50_ms"], want)
	}
	if want := 2 * 7.0 / 13; !near(got["ref_jobs_per_s"], want) {
		t.Errorf("ref_jobs_per_s = %g, want %g", got["ref_jobs_per_s"], want)
	}
}
