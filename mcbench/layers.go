package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/abcheck"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/errmodel"
	"repro/internal/fleet"
	"repro/internal/frame"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/verify"
)

// The traced run's direct calls into each layer's library entry point.
// Every probe times the benchmark's own call, so the figures hold for
// the code as shipped, whatever the daemons do around it.

// mallocs counts heap allocations made while f runs. The probes run on
// one goroutine while nothing else in the process works.
func mallocs(f func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs
}

func timed(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// probeDecode times serve.DecodeSpec plus Canonical on each body, the
// daemon's admission parse and content addressing.
func probeDecode(jobs []job) (usPerSpec float64, err error) {
	var xs []float64
	for _, j := range jobs {
		var derr error
		d := timed(func() {
			spec, e := serve.DecodeSpec(j.Body)
			if e == nil {
				_, _, e = spec.Canonical()
			}
			derr = e
		})
		if derr != nil {
			return 0, derr
		}
		xs = append(xs, float64(d.Nanoseconds())/1e3)
	}
	return median(xs), nil
}

// execSample is what execProbe measured on a sample of jobs.
type execSample struct {
	// bare holds each spec's time in serve.Execute without telemetry.
	bare         []time.Duration
	allocsPerJob float64
	// split holds the shares of a telemetered run spent in each layer
	// below the jobs' own: serve for event capture, the others by the
	// probes' rates and each sampled job's exact counts.
	split map[string]float64
}

// Per-job telemetry as mcservd attaches it by default: a live event
// ring, an archived event prefix and a metrics registry.
const (
	daemonEventRing     = 4096
	daemonCaptureEvents = 65536
)

// execProbe runs each spec, all of one workload's kind, through
// serve.Execute, the scheduler's runner without the daemon around it,
// twice: bare, and with the telemetry a daemon attaches to a job.
func execProbe(ctx context.Context, specs []*serve.JobSpec, pr *probeRates) (execSample, error) {
	var out execSample
	var tel, bare float64
	cost := map[string]float64{}
	var allocs uint64
	for _, spec := range specs {
		var (
			res  []byte
			err  error
			b, d time.Duration
		)
		allocs += mallocs(func() {
			b = timed(func() { res, err = serve.Execute(ctx, spec, serve.ExecOptions{Parallelism: 1}) })
		})
		if err != nil {
			return out, err
		}
		events := obs.Locked(obs.Multi(obs.NewRing(daemonEventRing), obs.NewCapture(daemonCaptureEvents)))
		d = timed(func() {
			_, err = serve.Execute(ctx, spec, serve.ExecOptions{Parallelism: 1, Events: events, Metrics: obs.NewMetrics()})
		})
		if err != nil {
			return out, err
		}
		c, err := resultCounts(spec.Kind, res)
		if err != nil {
			return out, err
		}
		jc, err := pr.jobCost(spec, c)
		if err != nil {
			return out, err
		}
		tel += float64(d.Nanoseconds()) / 1e3
		bare += float64(b.Nanoseconds()) / 1e3
		for l, v := range jc {
			cost[l] += v
		}
		out.bare = append(out.bare, b)
	}
	if len(specs) == 0 {
		return out, fmt.Errorf("no traced job to re-run")
	}
	out.allocsPerJob = float64(allocs) / float64(len(specs))
	// The probes ran on other inputs than the sampled jobs: where their
	// costs exceed the bare run, they are scaled down to it.
	total := 0.0
	for _, v := range cost {
		total += v
	}
	scale := 1.0
	if total > bare {
		scale = bare / total
	}
	tel = max(tel, bare)
	out.split = map[string]float64{layerServe: (tel - bare) / tel}
	for l, v := range cost {
		out.split[l] = v * scale / tel
	}
	return out, nil
}

// probeSweep times sim.RunSweepSpec per simulated slot and counts its
// allocations per sweep point.
func probeSweep(ctx context.Context, specs []sim.SweepSpec) (nsPerSlot, allocsPerPoint float64, err error) {
	var slots, points uint64
	var elapsed time.Duration
	var allocs uint64
	for _, s := range specs {
		var out *sim.SweepOutcome
		allocs += mallocs(func() {
			elapsed += timed(func() { out, err = sim.RunSweepSpec(ctx, s, 1, nil) })
		})
		if err != nil {
			return 0, 0, err
		}
		slots += sweepCounts(out).Slots
		points += uint64(len(out.Points))
	}
	return float64(elapsed.Nanoseconds()) / float64(slots), float64(allocs) / float64(points), nil
}

// Engine probes share one bus: nodes MajorCAN_5 stations broadcasting
// engineFrames frames. Undisturbed, the fast engine runs it packed and
// fast-forwarded; with a verify-style scripted EOF flip registered, the
// same traffic runs on the bus's reference loop. The reported figures
// use engineNodes stations, the verify bus; the split of sweep attempts
// measures bus/fastpath again at the sweep's station count, since a
// slot's cost grows with the stations on the bus.
const (
	engineNodes  = 4
	engineFrames = 300
)

// engineRuns is how many times an engine probe runs; it reports the
// median, since one run lasts only milliseconds.
const engineRuns = 5

func medianNsPerSlot(run func() (slots uint64, err error)) (float64, error) {
	var xs []float64
	for i := 0; i < engineRuns; i++ {
		var slots uint64
		var err error
		d := timed(func() { slots, err = run() })
		if err != nil {
			return 0, err
		}
		xs = append(xs, float64(d.Nanoseconds())/float64(slots))
	}
	return median(xs), nil
}

func probeFastpath(seed int64, nodes int) (nsPerSlot float64, err error) {
	policy, err := core.ParsePolicy("majorcan_5")
	if err != nil {
		return 0, err
	}
	return medianNsPerSlot(func() (uint64, error) {
		r, err := sim.MonteCarlo(sim.MCConfig{Policy: policy, Nodes: nodes, Frames: engineFrames, Seed: seed})
		if err != nil {
			return 0, err
		}
		return r.Slots, nil
	})
}

func probeScripted(seed int64, nodes int) (nsPerSlot float64, err error) {
	rng := rngFor(seed, "scripted", nodes)
	s := chaos.Script{
		Version: chaos.ScriptVersion, Protocol: "majorcan_5", Nodes: nodes, Frames: engineFrames,
		Faults: []chaos.Fault{{Kind: chaos.ViewFlip, Station: 1 + rng.Intn(nodes-1), EOFRel: 1 + rng.Intn(7), Attempt: 1}},
	}
	return medianNsPerSlot(func() (uint64, error) {
		r, err := chaos.Run(s)
		if err != nil {
			return 0, err
		}
		return r.Slots, nil
	})
}

// probeClusterBuild times sim.NewCluster for a MajorCAN_5 bus of the
// given size: verify builds one cluster per pattern.
func probeClusterBuild(nodes, n int) (us float64, err error) {
	policy, err := core.ParsePolicy(verifyProtocol)
	if err != nil {
		return 0, err
	}
	var xs []float64
	for i := 0; i < n; i++ {
		d := timed(func() { _, err = sim.NewCluster(sim.ClusterOptions{Nodes: nodes, Policy: policy}) })
		if err != nil {
			return 0, err
		}
		xs = append(xs, float64(d.Nanoseconds())/1e3)
	}
	return median(xs), nil
}

// probePatternRun times what verify does on the bus for one pattern: a
// single frame on the verify bus, with a scripted flip at each of the
// pattern's (station, EOF position) pairs, run until quiet. Pattern
// sizes are dealt in the proportion bySize gives (patterns of k flips
// at index k), as in verify's enumeration, and the flips drawn at
// random. It returns the
// mean run time per pattern, cluster build excluded.
func probePatternRun(seed int64, n int, bySize []int) (us float64, err error) {
	policy, err := core.ParsePolicy(verifyProtocol)
	if err != nil {
		return 0, err
	}
	positions := policy.(interface{ EndPos() int }).EndPos()
	rng := rngFor(seed, "pattern", 0)
	var elapsed time.Duration
	for i := 0; i < n; i++ {
		k := dealt(seed, "pattern-size", i, bySize)
		cluster, err := sim.NewCluster(sim.ClusterOptions{Nodes: engineNodes, Policy: policy})
		if err != nil {
			return 0, err
		}
		used := map[[2]int]bool{}
		var rules []*errmodel.Rule
		for len(rules) < k {
			f := [2]int{rng.Intn(engineNodes), 1 + rng.Intn(positions)}
			if !used[f] {
				used[f] = true
				rules = append(rules, errmodel.AtEOFBit([]int{f[0]}, f[1], 1))
			}
		}
		cluster.Net.AddDisturber(errmodel.NewScript(rules...))
		if err := cluster.Nodes[0].Enqueue(&frame.Frame{ID: 0x123, Data: []byte{0xCA, 0xFE}}); err != nil {
			return 0, err
		}
		elapsed += timed(func() { cluster.RunUntilQuiet(6000) })
	}
	return float64(elapsed.Nanoseconds()) / 1e3 / float64(n), nil
}

// probeVerify times verify.RunSpec at parallelism 1 per pattern.
// It also returns the window's pattern counts by size.
func probeVerify(ctx context.Context, spec verify.Spec) (usPerPattern, allocsPerPattern float64, bySize []int, err error) {
	var out *verify.SpecOutcome
	var d time.Duration
	allocs := mallocs(func() { d = timed(func() { out, err = verify.RunSpec(ctx, spec, 1) }) })
	if err != nil {
		return 0, 0, nil, err
	}
	n := float64(max(1, out.Checked))
	return float64(d.Nanoseconds()) / 1e3 / n, float64(allocs) / n, out.PatternsBy, nil
}

// chaosFigures are the chaos and abcheck probe results.
type chaosFigures struct {
	RunUs, NsPerSlot, AllocsPerTrial, CheckUs float64
	ShrinkMs, ExecutionsPerTrial              float64
}

// probeChaos runs campaign-trial-sized scripts (five stations, one
// frame, up to four faults of every kind) through chaos.Run, times
// abcheck.Check on their traces, shrinks one failing script, and runs
// one short campaign for its executions per trial.
func probeChaos(ctx context.Context, seed int64, trials, campaignTrials int) (chaosFigures, error) {
	var f chaosFigures
	var runs, checks []float64
	var elapsed time.Duration
	var slots, allocs uint64
	for i := 0; i < trials; i++ {
		s := trialScript(rngFor(seed, "chaos-trial", i))
		var r *chaos.Result
		var err error
		var d time.Duration
		allocs += mallocs(func() { d = timed(func() { r, err = chaos.Run(s) }) })
		if err != nil {
			return f, err
		}
		elapsed += d
		slots += r.Slots
		runs = append(runs, float64(d.Nanoseconds())/1e3)
		tr := r.Trace
		checks = append(checks, float64(timed(func() { abcheck.Check(tr) }).Nanoseconds())/1e3)
	}
	f.RunUs, f.CheckUs = median(runs), median(checks)
	f.NsPerSlot = float64(elapsed.Nanoseconds()) / float64(slots)
	f.AllocsPerTrial = float64(allocs) / float64(trials)

	s, failing, err := failingScript(seed)
	if err != nil {
		return f, err
	}
	f.ShrinkMs = float64(timed(func() { chaos.Shrink(s, failing) }).Nanoseconds()) / 1e6

	out, err := chaos.RunCampaignSpec(ctx, chaos.CampaignSpec{
		Protocol: "majorcan_5", Trials: campaignTrials, Seed: stream(seed, "chaos-campaign", 0) & (1<<40 - 1),
	}, chaos.Telemetry{}, nil)
	if err != nil {
		return f, err
	}
	f.ExecutionsPerTrial = float64(out.Executions) / float64(out.Trials)
	return f, nil
}

func trialScript(rng *rand.Rand) chaos.Script {
	s := chaos.Script{Version: chaos.ScriptVersion, Protocol: "majorcan_5", Nodes: 5, Frames: 1}
	for n := 1 + rng.Intn(4); n > 0; n-- {
		st := rng.Intn(s.Nodes)
		slot := uint64(20 + rng.Intn(120))
		switch rng.Intn(4) {
		case 0:
			s.Faults = append(s.Faults, chaos.Fault{Kind: chaos.Crash, Station: st, Slot: slot})
		case 1:
			s.Faults = append(s.Faults, chaos.Fault{Kind: chaos.ClockGlitch, Station: st, Slot: slot})
		default:
			s.Faults = append(s.Faults, chaos.Fault{Kind: chaos.ViewFlip, Station: st, EOFRel: 1 + rng.Intn(10), Attempt: 1})
		}
	}
	return s
}

// failingScript builds the paper's Fig. 3a inconsistency on standard
// CAN (the transmitter hit at its last EOF bit, one receiver at its
// last but one), padded with seeded view flips aimed at a retransmission
// that never happens, so chaos.Shrink has faults to remove.
func failingScript(seed int64) (chaos.Script, func(chaos.Script) bool, error) {
	rng := rngFor(seed, "shrink", 0)
	s := chaos.Script{Version: chaos.ScriptVersion, Protocol: "can", Nodes: 5, Frames: 1, Faults: []chaos.Fault{
		{Kind: chaos.ViewFlip, Station: 0, EOFRel: 7, Attempt: 1},
		{Kind: chaos.ViewFlip, Station: 1 + rng.Intn(4), EOFRel: 6, Attempt: 1},
	}}
	for n := 0; n < 6; n++ {
		s.Faults = append(s.Faults, chaos.Fault{Kind: chaos.ViewFlip, Station: rng.Intn(s.Nodes), EOFRel: 1 + rng.Intn(7), Attempt: 5})
	}
	rng.Shuffle(len(s.Faults), func(a, b int) { s.Faults[a], s.Faults[b] = s.Faults[b], s.Faults[a] })
	probes := chaos.DefaultProbes()
	failing := func(c chaos.Script) bool {
		r, err := chaos.Run(c)
		return err == nil && len(chaos.Violations(r, probes)) > 0
	}
	if !failing(s) {
		return s, nil, fmt.Errorf("shrink probe: the Fig. 3a script does not fail")
	}
	return s, failing, nil
}

// probeMerge plans each spec into shards, runs the shards with
// serve.Execute, and times fleet.Plan.Merge, checking that the merge
// reproduces the logical result byte for byte. It returns the median
// NewPlan time and the median Merge time.
func probeMerge(ctx context.Context, specs []*serve.JobSpec, shards int) (planUs, mergeMs float64, err error) {
	var plans, merges []float64
	for _, spec := range specs {
		var p *fleet.Plan
		plans = append(plans, float64(timed(func() { p, err = fleet.NewPlan(spec, shards) }).Nanoseconds())/1e3)
		if err != nil {
			return 0, 0, err
		}
		results := make([]json.RawMessage, len(p.Shards))
		for i, sh := range p.Shards {
			if results[i], err = serve.Execute(ctx, sh.Spec, serve.ExecOptions{Parallelism: 1}); err != nil {
				return 0, 0, err
			}
		}
		var merged json.RawMessage
		merges = append(merges, float64(timed(func() { merged, err = p.Merge(results) }).Nanoseconds())/1e6)
		if err != nil {
			return 0, 0, err
		}
		want, err := serve.Execute(ctx, spec, serve.ExecOptions{Parallelism: 1})
		if err != nil {
			return 0, 0, err
		}
		if string(merged) != string(want) {
			return 0, 0, fmt.Errorf("fleet merge of %s differs from the single-node result", p.Digest.Short())
		}
	}
	return median(plans), median(merges), nil
}

// probeRates are the direct probes' per-unit costs by which the traced
// run splits job attempts among the layers below them, each measured
// once per station count.
type probeRates struct {
	seed      int64
	fastNs    map[int]float64 // bus/fastpath ns per slot, undisturbed
	buildUs   map[int]float64 // sim.NewCluster µs
	patternUs float64         // bus µs per verify pattern
}

func newProbeRates(seed int64) *probeRates {
	return &probeRates{seed: seed, fastNs: map[int]float64{}, buildUs: map[int]float64{}}
}

func memo(m map[int]float64, nodes int, measure func() (float64, error)) (float64, error) {
	if v, ok := m[nodes]; ok {
		return v, nil
	}
	v, err := measure()
	if err == nil {
		m[nodes] = v
	}
	return v, err
}

func (p *probeRates) fast(nodes int) (float64, error) {
	return memo(p.fastNs, nodes, func() (float64, error) { return probeFastpath(p.seed, nodes) })
}

func (p *probeRates) build(nodes int) (float64, error) {
	return memo(p.buildUs, nodes, func() (float64, error) { return probeClusterBuild(nodes, 200) })
}

// jobCost is the time, in µs, the probes put in the layers below a
// job's own for the job's exact counts: a sweep's slots on
// bus/fastpath; a cluster build (sim) and a bus run per verify pattern.
// A sweep's own cluster builds and Atomic Broadcast checks stay with
// sim, and verify's classification with verify.
func (p *probeRates) jobCost(spec *serve.JobSpec, c counts) (map[string]float64, error) {
	if spec.Kind == serve.KindSweep {
		ns, err := p.fast(spec.Sweep.Nodes)
		return map[string]float64{layerFastpath: float64(c.Slots) * ns / 1e3}, err
	}
	build, err := p.build(engineNodes)
	return map[string]float64{
		layerSim: float64(c.Patterns) * build,
		layerBus: float64(c.Patterns) * p.patternUs,
	}, err
}
