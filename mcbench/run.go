package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro/internal/serve"
)

// workload is one named traffic mix: one closed-loop client against a
// single mcservd. Why each exists is recorded once, in BENCHMARK.json.
type workload struct {
	name   string
	unit   string // what work_per_s counts, for the human-readable lines
	alias  string // the name work_per_s goes by on this workload
	newGen func(seed int64) (generator, error)
	units  func(c counts) float64
}

// traceJobs is how many jobs the traced loop runs. Fetching a job's
// trace costs the daemon a Perfetto render of up to 65536 captured
// protocol events, up to half a second for a 32-node sweep, so the
// traced loop is sized by jobs, not by time: one queue wait per job,
// minTail of them.
const traceJobs = minTail

// minTail is the least number of samples a 90th percentile is taken
// over: it then has at least minAbove samples above it.
const minTail = 10 * minAbove

// setupRounds is how many times a run brings its daemons up; setup_s
// is the median.
const setupRounds = 21

// rssJobs is how many executed jobs of the measured loop peak_rss_mb is
// read after. A daemon keeps each job's record, event capture included,
// so its memory grows with the jobs it has run: read after a fixed
// number of them, the figure does not grow with throughput.
const rssJobs = 64

// rateWindows is how many equal slices of a measured loop the
// throughputs take their median over.
const rateWindows = 10

var workloads = map[string]workload{
	"sweep": {
		name: "sweep", unit: "bit-slots", alias: "bitslots_per_s",
		newGen: func(seed int64) (generator, error) { return &sweepGen{seed: seed}, nil },
		units:  func(c counts) float64 { return float64(c.Slots) },
	},
	"verify": {
		name: "verify", unit: "patterns", alias: "patterns_per_s",
		newGen: func(seed int64) (generator, error) { return newVerifyGen(seed) },
		units:  func(c counts) float64 { return float64(c.Patterns) },
	},
}

type config struct {
	w      workload
	seed   int64
	dur    time.Duration
	traced bool
	bin    string
	dir    string
	state  string
}

// run measures one workload: set-up, the measured closed loop —
// untraced, then traced on a traced run — and, after the daemons stop,
// every output check.
func run(ctx context.Context, cfg config) (*report, error) {
	gen, err := cfg.w.newGen(cfg.seed)
	if err != nil {
		return nil, err
	}
	// Each start-up is timed between two calibration bursts, and scaled
	// to the reference host by the kernel's speed in them.
	var setups, refSetups []float64
	var cl *cluster
	for k := 0; k < setupRounds; k++ {
		before := calibrate()
		c, d, err := startCluster(ctx, cfg.bin, filepath.Join(cfg.dir, fmt.Sprintf("setup%d", k)), false)
		if err != nil {
			return nil, err
		}
		after := calibrate()
		setups = append(setups, d.Seconds())
		refSetups = append(refSetups, d.Seconds()*kernelSpeed(before, after)/refKernelPerS)
		if k < setupRounds-1 {
			c.stop()
		} else {
			cl = c
		}
	}
	defer func() { cl.stop() }()

	// However short --seconds is, the verify loop runs one whole pass,
	// so that every pattern of the space is checked.
	measured := loopSpec{dur: cfg.dur}
	if vg, ok := gen.(*verifyGen); ok {
		measured.minExecuted = vg.maxPassLen()
	}
	var (
		executed int
		rss      float64
		rssErr   error
	)
	measured.after = func(*sample) {
		if executed++; executed == rssJobs {
			rss, rssErr = cl.peakRSSMB()
		}
	}
	loop := closedLoop(ctx, cl.front.base, gen, measured)
	if executed < rssJobs {
		rss, rssErr = cl.peakRSSMB()
	}
	if rssErr != nil {
		return nil, rssErr
	}
	var tr *tracedRun
	if cfg.traced {
		tr = &tracedRun{ctx: ctx, cl: cl, origin: time.Now(), phases: map[string][]float64{}, attempts: map[serve.Digest]float64{}}
		tr.loop = closedLoop(ctx, cl.front.base, gen, loopSpec{limit: traceJobs, after: tr.collect})
		tr.end = time.Now()
		for _, b := range tr.loop.Bursts {
			tr.spans = append(tr.spans, span{Name: "calibration", Layer: layerBench,
				Start: micros(b.Start, tr.origin), End: micros(b.End, tr.origin), Parent: -1})
		}
		if err := tr.readStats(); err != nil {
			return nil, err
		}
	}
	var fp *fleetFigures
	if cfg.traced {
		if fp, err = runFleetProbe(ctx, cfg, gen); err != nil {
			return nil, fmt.Errorf("fleet probe: %w", err)
		}
	}
	cl.stop()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	all := append([]*sample(nil), loop.Samples...)
	if tr != nil {
		all = append(all, tr.loop.Samples...)
	}
	v := checkSamples(ctx, all, direct, runtime.NumCPU())
	if vg, ok := gen.(*verifyGen); ok {
		checkCoverage(v, vg.space)
	}
	if fp != nil {
		v.Problems = append(v.Problems, fp.problems...)
	}
	if err := compareCounts(cfg, v); err != nil {
		return nil, err
	}
	t := v.total()
	// Sweeps are the one kind whose results carry every simulated slot:
	// the daemon's own counter must agree with them exactly.
	if _, ok := gen.(*sweepGen); ok && tr != nil && tr.simBits != t.Slots {
		v.Problems = append(v.Problems, fmt.Sprintf("daemon counted %d simulated slots, results report %d", tr.simBits, t.Slots))
	}

	rep := &report{Attempted: v.Attempted, Failed: v.Failed, Correct: v.Failed == 0 && len(v.Problems) == 0}
	e2e := endToEnd(cfg.w, loop, v, setupFigures{ref: median(refSetups), host: median(setups)}, rss)
	rep.linef("mcbench %s seed %d", cfg.w.name, cfg.seed)
	rep.linef("  %d attempted, %d failed (failed_ratio %.4g), %d refused; correct=%v",
		v.Attempted, v.Failed, float64(v.Failed)/float64(max(1, v.Attempted)), v.Refused, rep.Correct)
	for _, r := range v.reasonList() {
		rep.linef("  FAILED: %s", r)
	}
	rep.linef("  exact counts over %d executed jobs: slots=%d patterns=%d imos=%d duplicates=%d reads=%d",
		len(v.Counts), t.Slots, t.Patterns, t.IMOs, t.Duplicates, v.Reads)
	for _, l := range e2e.lines {
		rep.linef("  %s", l)
	}
	if !cfg.traced {
		rep.Metrics = e2e.metrics
		return rep, nil
	}
	rep.linef("  daemons' /metrics: mc_sim_bits_total=%d", tr.simBits)
	if err := perLayer(ctx, cfg, rep, v, tr, e2e, fp); err != nil {
		return nil, err
	}
	return rep, nil
}

// setupFigures is a run's setup_s: the median start-up scaled to the
// reference host, and in host time.
type setupFigures struct{ ref, host float64 }

type e2eFigures struct {
	metrics []metric
	lines   []string
	// host holds the figures in host time, by metric name, and
	// kernelPerS the calibration kernel's speed over the loop.
	host       map[string]float64
	kernelPerS float64
	refWorkPS  float64
}

// endToEnd computes the end-to-end metrics of a measured loop. Only
// submissions that passed every check count as work.
func endToEnd(w workload, loop loopResult, v *verdict, setup setupFigures, rss float64) e2eFigures {
	f := e2eFigures{host: map[string]float64{}}
	passed := map[*sample]bool{}
	for _, s := range v.Executed {
		passed[s] = true
	}
	// Throughputs are medians over rateWindows equal slices of the
	// loop's active time (its wall time less the calibration bursts): a
	// burst of host contention that slows a few slices moves the median
	// little. Each reply's work is spread evenly over its request's
	// interval, so that a slice's rate is not quantized by whole jobs
	// (a slice of a 20-second loop holds some thirty of them). Each
	// slice is scaled to the reference host by the kernel's speed in
	// that slice, and so is each latency.
	tl := loop.timeline()
	wall := tl.active(loop.Start.Add(loop.Wall))
	slice := wall / rateWindows
	kernel := kernelRates(tl, wall, rateWindows)
	work := make([]float64, rateWindows)
	replies := make([]float64, rateWindows)
	credit := func(into []float64, s *sample, units float64) {
		a, b := tl.active(s.Start), tl.active(s.End)
		if b <= a {
			into[sliceOf(b, wall, rateWindows)] += units
			return
		}
		for k := int(a / slice); k < rateWindows && float64(k)*slice < b; k++ {
			lo, hi := max(a, float64(k)*slice), min(b, float64(k+1)*slice)
			into[k] += units * max(0, hi-lo) / (b - a)
		}
	}
	var cold, reads, refCold []float64
	total := 0
	for _, s := range loop.Samples {
		if s.Err != nil || s.Code != 200 {
			continue
		}
		if !s.Get {
			total++
			credit(replies, s, 1)
		}
		ms := float64(s.latency().Nanoseconds()) / 1e6
		ref := ms * kernel[sliceOf(tl.active(s.Start), wall, rateWindows)] / refKernelPerS
		if s.Get {
			reads = append(reads, ms)
			continue
		}
		cold, refCold = append(cold, ms), append(refCold, ref)
		if passed[s] {
			credit(work, s, w.units(v.Counts[s.Job.Index]))
		}
	}
	perS := func(in []float64, ref bool) float64 {
		r := make([]float64, len(in))
		for k, x := range in {
			r[k] = x / slice
			if ref {
				r[k] *= refKernelPerS / kernel[k]
			}
		}
		return median(r)
	}
	f.refWorkPS = perS(work, true)
	f.host = map[string]float64{
		"work_per_s": perS(work, false), "jobs_per_s": perS(replies, false),
		"latency_p50_ms": median(cold), "read_latency_p50_ms": median(reads), "setup_s": setup.host,
	}
	f.kernelPerS = median(kernel)
	add := func(name string, value float64, host, note string) {
		f.metrics = append(f.metrics, metric{name, value})
		f.lines = append(f.lines, fmt.Sprintf("%-24s %14.6g %-5s %-22s %s", name, value, units[name], host, note))
	}
	hostNote := func(name string) string { return fmt.Sprintf("host %.6g", f.host[name]) }
	add("ref_work_per_s", f.refWorkPS, hostNote("work_per_s"),
		fmt.Sprintf("%s per second, median of %d slices of %.2f s (%s)", w.unit, rateWindows, wall, w.alias))
	add("ref_jobs_per_s", perS(replies, true), hostNote("jobs_per_s"), fmt.Sprintf("%d submissions answered", total))
	add("ref_latency_p50_ms", median(refCold), hostNote("latency_p50_ms"), fmt.Sprintf("executed jobs, n=%d", len(cold)))
	add("setup_s", setup.ref, fmt.Sprintf("host %.6g", setup.host), fmt.Sprintf("median of %d daemon start-ups to healthy", setupRounds))
	f.lines = append(f.lines, fmt.Sprintf("%-24s %14.6g %-5s %-22s GET /v1/jobs/{id} reads of finished jobs, n=%d (not gated)",
		"read_latency_p50_ms", median(reads), "ms", "host", len(reads)))
	add("peak_rss_mb", rss, "", fmt.Sprintf("the daemon's resident-set high-water mark after %d executed jobs", rssJobs))
	f.lines = append(f.lines, fmt.Sprintf("%-24s %14.6g %-5s %d bursts; ref_* figures are host figures scaled by it to %d/s",
		"calibration_kernel_per_s", f.kernelPerS, "1/s", len(loop.Bursts), refKernelPerS))
	// The tail is printed, in host time, not gated: on a shared two-core
	// host it moves with the neighbours' load more than with the code.
	for _, q := range []float64{0.9, 0.99} {
		if p, ok := percentile(cold, q); ok {
			f.lines = append(f.lines, fmt.Sprintf("%-24s %14.6g %-5s executed jobs, n=%d (host, not gated)",
				fmt.Sprintf("latency_p%.0f_ms", 100*q), p, "ms", len(cold)))
		}
	}
	return f
}

// compareCounts keeps each executed job's exact counts per workload and
// seed under the state directory, as first recorded, and reports any job
// whose counts differ from an earlier run of the same seed.
func compareCounts(cfg config, v *verdict) error {
	if err := os.MkdirAll(cfg.state, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.state, fmt.Sprintf("counts-%s-%d.json", cfg.w.name, cfg.seed))
	prior := map[string]counts{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &prior); err != nil {
			prior = map[string]counts{} // an unreadable record is replaced, not trusted
		}
	}
	differ := 0
	for idx, c := range v.Counts {
		key := strconv.Itoa(idx)
		p, ok := prior[key]
		switch {
		case !ok:
			prior[key] = c
		case p != c:
			differ++ // the first record stands, so a disagreement keeps showing
		}
	}
	if differ > 0 {
		v.Problems = append(v.Problems, fmt.Sprintf("%d jobs' exact counts differ from an earlier run of seed %d", differ, cfg.seed))
	}
	b, err := json.Marshal(prior)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
