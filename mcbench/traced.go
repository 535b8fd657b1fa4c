package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/fleet"
	"repro/internal/serve"
	"repro/internal/sim"
)

// tracedRun collects, for every executed job of the traced loop, the
// daemon's own phase spans (GET /v1/jobs/{id}/trace) placed under the
// client's request span, plus the benchmark's span around each fetch.
type tracedRun struct {
	ctx    context.Context
	cl     *cluster
	origin time.Time
	end    time.Time
	loop   loopResult

	spans    []span
	phases   map[string][]float64     // serve-side phase durations (µs) by phase name
	attempts map[serve.Digest]float64 // attempt duration (µs) by job digest
	httpUs   []float64
	problems []string

	utilization []float64
	simBits     uint64 // mc_sim_bits_total from the daemon's /metrics
	rejected    uint64 // mc_jobs_rejected_*_total from the daemon's /metrics
}

func fetchPhases(ctx context.Context, base string, d serve.Digest) (jobPhases, error) {
	b, err := api(base).Trace(ctx, d)
	if err != nil {
		return jobPhases{}, err
	}
	return parseJobTrace(b)
}

// collect is the traced loop's per-job hook.
func (t *tracedRun) collect(s *sample) {
	fetchStart := time.Now()
	jp, err := fetchPhases(t.ctx, t.cl.front.base, s.Job.Digest)
	fetchEnd := time.Now()
	t.spans = append(t.spans, span{Name: "trace fetch", Layer: layerBench,
		Start: micros(fetchStart, t.origin), End: micros(fetchEnd, t.origin), Parent: -1})
	if err != nil {
		t.problems = append(t.problems, fmt.Sprintf("trace of %s: %v", s.Job.Digest.Short(), err))
		return
	}
	base := len(t.spans)
	for _, sp := range jobSpans(s, jp, t.origin) {
		if sp.Parent >= 0 {
			sp.Parent += base
		}
		t.spans = append(t.spans, sp)
	}
	t.httpUs = append(t.httpUs, float64(s.latency().Nanoseconds())/1e3-jp.Root.Dur)
	for _, ph := range jp.Phases {
		t.phases[ph.Name] = append(t.phases[ph.Name], ph.Dur)
		if ph.Name == "attempt" {
			t.attempts[s.Job.Digest] = ph.Dur
		}
	}
}

// readStats reads the daemon's /v1/stats and /metrics.
func (t *tracedRun) readStats() error {
	c := api(t.cl.front.base)
	st, err := c.Stats(t.ctx)
	if err != nil {
		return err
	}
	for _, sh := range st.Shards {
		t.utilization = append(t.utilization, sh.Utilization)
	}
	text, err := c.MetricsText(t.ctx)
	if err != nil {
		return err
	}
	for _, line := range strings.Split(string(text), "\n") {
		name, value, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		n, err := strconv.ParseFloat(value, 64)
		if err != nil {
			continue
		}
		switch name {
		case "mc_sim_bits_total":
			t.simBits += uint64(n)
		case "mc_jobs_rejected_queue_full_total", "mc_jobs_rejected_draining_total":
			t.rejected += uint64(n)
		}
	}
	return nil
}

// fleetFigures are the fleet layer's figures from the fleet probe.
type fleetFigures struct {
	dispatchMs, shardMaxMs, shardMinMs []float64
	speedup                            float64
	reassigned                         uint64
	problems                           []string
}

// fleetProbeJobs is how many of the workload's own jobs the traced run
// sends through a coordinator with two workers, and again through one
// worker alone.
const fleetProbeJobs = 6

// runFleetProbe starts a coordinator with two workers and sends fresh
// jobs of the workload through it and through one worker alone, timing
// dispatch and the per-shard runs from the coordinator's and the
// workers' traces and checking that the merged result equals the
// single node's byte for byte.
func runFleetProbe(ctx context.Context, cfg config, gen generator) (*fleetFigures, error) {
	fc, _, err := startCluster(ctx, cfg.bin, filepath.Join(cfg.dir, "fleetprobe"), true)
	if err != nil {
		return nil, err
	}
	defer fc.stop()
	var jobs []job
	for len(jobs) < fleetProbeJobs {
		// A job with one shard is the single node's own job: it does not
		// show the fleet at work.
		j := gen.next()
		p, err := fleet.NewPlan(j.Spec, 2*len(fc.workers))
		if err != nil {
			return nil, err
		}
		if len(p.Shards) > 1 {
			jobs = append(jobs, j)
		}
	}
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	f := &fleetFigures{}
	var fleetMs, singleMs []float64
	for _, j := range jobs {
		viaFleet := &sample{Job: j}
		submitWait(ctx, hc, fc.front.base, viaFleet)
		single := &sample{Job: j}
		submitWait(ctx, hc, fc.workers[0].base, single)
		if viaFleet.Err != nil || single.Err != nil || viaFleet.State != serve.StateDone || single.State != serve.StateDone {
			f.problems = append(f.problems, fmt.Sprintf("fleet probe job %s failed", j.Digest.Short()))
			continue
		}
		if !bytes.Equal(viaFleet.Result, single.Result) {
			f.problems = append(f.problems, fmt.Sprintf("fleet result of %s differs from the single node's", j.Digest.Short()))
		}
		fleetMs = append(fleetMs, float64(viaFleet.latency().Nanoseconds())/1e6)
		singleMs = append(singleMs, float64(single.latency().Nanoseconds())/1e6)
		jp, err := fetchPhases(ctx, fc.front.base, j.Digest)
		if err != nil {
			return nil, err
		}
		for _, p := range jp.Phases {
			if p.Name == "dispatch" {
				f.dispatchMs = append(f.dispatchMs, p.Dur/1e3)
			}
		}
		var runs []float64
		for _, sh := range viaFleet.Shards {
			sp, err := fetchPhases(ctx, sh.Worker, sh.Digest)
			if err != nil {
				return nil, err
			}
			for _, p := range sp.Phases {
				if p.Name == "attempt" {
					runs = append(runs, p.Dur/1e3)
				}
			}
		}
		if len(runs) > 0 {
			s := sortedCopy(runs)
			f.shardMinMs = append(f.shardMinMs, s[0])
			f.shardMaxMs = append(f.shardMaxMs, s[len(s)-1])
		}
	}
	if len(fleetMs) > 0 {
		f.speedup = median(singleMs) / median(fleetMs)
	}
	var st fleet.Stats
	if err := api(fc.front.base).GetJSON(ctx, "/v1/stats", &st); err != nil {
		return nil, err
	}
	f.reassigned = st.Shards.Reassigned
	return f, nil
}

// perLayerSample bounds how many of the traced loop's jobs are re-run
// in-process for the telemetry, allocation and split figures.
const perLayerSample = 12

// perLayer fills a traced run's report: the per-layer metrics, each
// layer's self time, and the tracing overhead.
func perLayer(ctx context.Context, cfg config, rep *report, v *verdict, tr *tracedRun, untraced e2eFigures, fp *fleetFigures) error {
	traced := endToEnd(cfg.w, tr.loop, v, setupFigures{}, 0)
	rep.Lines = append(rep.Lines, "  traced run (per-layer figures):")
	add := func(name string, value float64, note string) {
		rep.Metrics = append(rep.Metrics, metric{name, value})
		rep.linef("  %-30s %14.6g %-6s %s", name, value, units[name], note)
	}

	var executed []*sample
	passed := map[*sample]bool{}
	for _, s := range v.Executed {
		passed[s] = true
	}
	for _, s := range tr.loop.Samples {
		if passed[s] {
			executed = append(executed, s)
		}
	}
	if len(executed) == 0 {
		return fmt.Errorf("traced loop executed no job correctly")
	}

	// serve
	var bodies []job
	for _, s := range executed {
		bodies = append(bodies, s.Job)
	}
	decodeUs, err := probeDecode(bodies)
	if err != nil {
		return err
	}
	add("serve.decode_us", decodeUs, "DecodeSpec + Canonical, median per spec")
	fsync := append(append([]float64(nil), tr.phases["journal accept"]...), tr.phases["journal done"]...)
	add("serve.journal_fsync_us", median(fsync), fmt.Sprintf("journal append phases, median, n=%d", len(fsync)))
	add("serve.cache_put_us", median(tr.phases["cache put"]), "cache put phase, median")
	qw := tr.phases["queue wait"]
	q90, ok := percentile(qw, 0.9)
	if !ok {
		return fmt.Errorf("traced loop recorded %d queue waits, too few for a 90th percentile", len(qw))
	}
	add("serve.queue_wait_ms_p90", q90/1e3, fmt.Sprintf("queue wait phase, n=%d", len(qw)))
	add("serve.attempt_ms", median(tr.phases["attempt"])/1e3, "attempt phase, median")
	add("serve.shard_utilization", mean(tr.utilization), "busy share of the scheduler shards, mean")
	add("serve.http_us", median(tr.httpUs), "client latency minus the daemon's job window, median")
	add("serve.refused", float64(v.Refused), fmt.Sprintf("429 and 503 replies (the daemons' /metrics count %d)", tr.rejected))
	add("failed_ratio", float64(v.Failed)/float64(max(1, v.Attempted)), "failed submissions of all attempted")

	// fleet
	var planSpecs []*serve.JobSpec
	for _, s := range executed {
		if len(planSpecs) < 3 {
			planSpecs = append(planSpecs, s.Job.Spec)
		}
	}
	planUs, mergeMs, err := probeMerge(ctx, planSpecs, 4)
	if err != nil {
		return err
	}
	add("fleet.plan_us", planUs, "fleet.NewPlan into 4 shards, median")
	add("fleet.merge_ms", mergeMs, "Plan.Merge of 4 shard results, median")
	add("fleet.dispatch_ms", median(fp.dispatchMs), fmt.Sprintf("coordinator dispatch span per shard, median, n=%d", len(fp.dispatchMs)))
	add("fleet.shard_run_ms_max", median(fp.shardMaxMs), "slowest shard's worker attempt per job, median")
	add("fleet.shard_run_ms_min", median(fp.shardMinMs), "fastest shard's worker attempt per job, median")
	add("fleet.speedup_vs_single", fp.speedup, "single worker latency / fleet latency, medians")
	add("fleet.reassigned", float64(fp.reassigned), "shards moved off a worker")

	// sim and bus/fastpath
	sg := &sweepGen{seed: cfg.seed}
	sweepNs, allocsPerPoint, err := probeSweep(ctx, []sim.SweepSpec{*sg.next().Spec.Sweep, *sg.next().Spec.Sweep})
	if err != nil {
		return err
	}
	add("sim.sweep_ns_per_slot", sweepNs, "sim.RunSweepSpec of two sweep-workload specs")
	add("sim.allocs_per_point", allocsPerPoint, "allocations per sweep point")
	pr := newProbeRates(cfg.seed)
	buildUs, err := pr.build(engineNodes)
	if err != nil {
		return err
	}
	add("sim.cluster_build_us", buildUs, fmt.Sprintf("sim.NewCluster of the %d-station verify bus, median", engineNodes))
	fastNs, err := pr.fast(engineNodes)
	if err != nil {
		return err
	}
	add("fastpath.ns_per_slot", fastNs, fmt.Sprintf("undisturbed MonteCarlo, %d stations, %d frames", engineNodes, engineFrames))
	scriptedNs, err := probeScripted(cfg.seed, engineNodes)
	if err != nil {
		return err
	}
	add("bus.ns_per_slot_scripted", scriptedNs, fmt.Sprintf("same traffic with one scripted EOF flip: %.2fx fastpath", scriptedNs/fastNs))

	// verify
	vg, err := newVerifyGen(cfg.seed)
	if err != nil {
		return err
	}
	usPerPattern, allocsPerPattern, bySize, err := probeVerify(ctx, *vg.next().Spec.Verify)
	if err != nil {
		return err
	}
	add("verify.us_per_pattern", usPerPattern, "verify.RunSpec of one window at parallelism 1")
	add("verify.allocs_per_pattern", allocsPerPattern, "allocations per pattern")
	if pr.patternUs, err = probePatternRun(cfg.seed, 500, bySize); err != nil {
		return err
	}

	// chaos and abcheck
	cf, err := probeChaos(ctx, cfg.seed, 100, 1500)
	if err != nil {
		return err
	}
	add("chaos.run_us", cf.RunUs, "chaos.Run of a campaign-trial script, median")
	add("chaos.ns_per_slot", cf.NsPerSlot, "the same runs per simulated slot")
	add("chaos.allocs_per_trial", cf.AllocsPerTrial, "allocations per chaos.Run")
	add("chaos.shrink_ms", cf.ShrinkMs, "chaos.Shrink of an eight-fault Fig. 3a script")
	add("chaos.executions_per_trial", cf.ExecutionsPerTrial, "campaign executions per trial (shrinking adds the excess)")
	add("abcheck.check_us", cf.CheckUs, "abcheck.Check of a chaos.Run trace, median")

	// Re-run a sample of the traced jobs through serve.Execute: the
	// daemon's attempt minus the bare run is what its event ring and
	// capture cost.
	var specs []*serve.JobSpec
	var attempts []float64
	for _, s := range executed {
		if a, ok := tr.attempts[s.Job.Digest]; ok && len(specs) < perLayerSample {
			specs, attempts = append(specs, s.Job.Spec), append(attempts, a)
		}
	}
	es, err := execProbe(ctx, specs, pr)
	if err != nil {
		return err
	}
	var telemetry []float64
	for i, d := range es.bare {
		telemetry = append(telemetry, attempts[i]-float64(d.Nanoseconds())/1e3)
	}
	add("serve.telemetry_us", median(telemetry), fmt.Sprintf("daemon attempt minus direct serve.Execute, median, n=%d", len(telemetry)))
	add("serve.allocs_per_job", es.allocsPerJob, fmt.Sprintf("serve.Execute, mean over %d specs", len(specs)))

	// Self time by layer over the traced loop, and the tracing overhead.
	// Shares of the traced wall time, so that traced loops of different
	// lengths compare. Each attempt is first divided among the layers
	// below its kind's in the shares the in-process re-runs measured.
	shares := map[serve.Digest]map[string]float64{}
	for _, s := range executed {
		shares[s.Job.Digest] = es.split
	}
	rep.linef("  attempts divide as %s", formatShares(es.split))
	at := attribute(splitAttempts(tr.spans, shares), 0, micros(tr.end, tr.origin))
	for _, l := range allLayers {
		add("self."+l, at.Self[l]/at.Wall, fmt.Sprintf("%.1f ms exclusive time in the traced loop", at.Self[l]/1e3))
	}
	add("self.unattributed", at.Unattributed/at.Wall, fmt.Sprintf("%.1f ms of the traced loop inside no span", at.Unattributed/1e3))
	add("trace.wall_ms", at.Wall/1e3, fmt.Sprintf("traced loop wall time, %d jobs", traceJobs))
	overhead := 0.0
	if traced.refWorkPS > 0 {
		overhead = 100 * (untraced.refWorkPS/traced.refWorkPS - 1)
	}
	add("trace.overhead_pct", overhead, "untraced over traced ref_work_per_s, minus one")

	// The measured loop's figures in host time, unscaled.
	for _, name := range []string{"work_per_s", "jobs_per_s", "latency_p50_ms", "read_latency_p50_ms"} {
		add("host."+name, untraced.host[name], "the measured loop in host time")
	}
	add("host.setup_s", untraced.host["setup_s"], "median start-up in host time")
	add("host.kernel_per_s", untraced.kernelPerS, fmt.Sprintf("calibration kernel speed over the measured loop (reference %d/s)", refKernelPerS))
	for _, p := range tr.problems {
		rep.linef("  FAILED: %s", p)
	}
	rep.Correct = rep.Correct && len(tr.problems) == 0
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// formatShares renders a layer split in the order of allLayers.
func formatShares(sh map[string]float64) string {
	var parts []string
	for _, l := range allLayers {
		if sh[l] > 0 {
			parts = append(parts, fmt.Sprintf("%s %.1f%%", l, 100*sh[l]))
		}
	}
	return strings.Join(parts, ", ") + ", the rest to its own layer"
}
