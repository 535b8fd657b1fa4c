package serve

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/chaos"
	"repro/internal/sim"
	"repro/internal/verify"
)

// Shard is one unit of a plan: a self-contained JobSpec covering a
// contiguous slice of the logical job's work.
type Shard struct {
	// Index is the shard's position in the plan; the merge consumes
	// shard results in index order.
	Index int
	// Spec is the shard's job spec, runnable on any node.
	Spec *JobSpec
	// Digest is the shard spec's content address — the key shard results
	// are cached and checkpointed under.
	Digest Digest
}

// Plan is the deterministic decomposition of one logical job into
// contiguous shards: the fleet coordinator's dispatch units and a single
// node's checkpoint chunks alike. Planning is a pure function of
// (logical spec, shard target): re-planning after a crash reproduces the
// identical shard table, which is what lets recovery re-derive the split
// from the journaled logical spec and adopt the shard results in the
// job's checkpoint.
//
// The merge invariant is the type's whole contract: for any shard count
// and any order in which the shards finish, the merged result is
// byte-identical to what one run of the logical spec produces. It holds
// because every shardable kind has an explicit shard handle whose work
// partitions exactly:
//
//   - sweeps split by contiguous seed ranges (sim.SweepSpec.Seed/Seeds;
//     every point's RNG is derived from its own seed),
//   - campaigns split by contiguous trial ranges
//     (chaos.CampaignSpec.TrialOffset; every trial's RNG is derived
//     from the global trial index),
//   - verify enumerations split by contiguous pattern-index ranges
//     (verify.Spec.PatternStart/PatternCount over the deterministic
//     DFS pre-order of flip patterns).
type Plan struct {
	// Spec is the normalized logical job spec.
	Spec *JobSpec
	// Digest is the logical job's content address.
	Digest Digest
	// Shards are the shard jobs in merge order.
	Shards []Shard
}

// NewPlan decomposes a normalized, valid logical spec into at most
// target shards. Whenever the split comes out as a single range — a
// target of 1, one unit of work, a script, a stop-at-first campaign —
// the one shard is the logical spec itself, so its digest and its
// result are the logical job's.
func NewPlan(spec *JobSpec, target int) (*Plan, error) {
	_, digest, err := spec.Canonical()
	if err != nil {
		return nil, err
	}
	units, cut, err := splitAxis(spec)
	if err != nil {
		return nil, err
	}
	specs := []*JobSpec{spec}
	if rs := ranges(units, target); cut != nil && len(rs) > 1 {
		specs = specs[:0]
		for _, r := range rs {
			specs = append(specs, cut(r[0], r[1]))
		}
	}
	p := &Plan{Spec: spec, Digest: digest, Shards: make([]Shard, len(specs))}
	for i, s := range specs {
		_, d, err := s.Canonical()
		if err != nil {
			return nil, err
		}
		p.Shards[i] = Shard{Index: i, Spec: s, Digest: d}
	}
	return p, nil
}

// splitAxis returns how many work units a spec's job has along its
// kind's split axis, and how to cut the contiguous range
// [off, off+count) of them out as a runnable spec. A nil cut means the
// kind does not split.
func splitAxis(spec *JobSpec) (units int, cut func(off, count int) *JobSpec, err error) {
	switch spec.Kind {
	case KindSweep:
		return spec.Sweep.Seeds, func(off, count int) *JobSpec {
			sub, sw := *spec, *spec.Sweep
			sw.Seed += int64(off)
			sw.Seeds = count
			sub.Sweep = &sw
			return &sub
		}, nil
	case KindCampaign:
		// A stop-at-first campaign is inherently sequential (trial t+1
		// runs only if trial t found nothing), so it does not split.
		if spec.Campaign.StopAtFirst {
			return 1, nil, nil
		}
		return spec.Campaign.Trials, func(off, count int) *JobSpec {
			sub, cs := *spec, *spec.Campaign
			cs.TrialOffset += off
			cs.Trials = count
			sub.Campaign = &cs
			return &sub
		}, nil
	case KindVerify:
		space, err := spec.Verify.PatternSpace()
		if err != nil {
			return 0, nil, err
		}
		// The logical job's own window (usually the whole space) is what
		// gets partitioned; a logical spec that already carries a window
		// splits into sub-windows of it.
		window := max(space-spec.Verify.PatternStart, 0)
		if c := spec.Verify.PatternCount; c > 0 && c < window {
			window = c
		}
		return window, func(off, count int) *JobSpec {
			sub, vs := *spec, *spec.Verify
			vs.PatternStart += off
			vs.PatternCount = count
			sub.Verify = &vs
			return &sub
		}, nil
	case KindScript:
		return 1, nil, nil
	}
	return 0, nil, fmt.Errorf("serve: unknown job kind %q", spec.Kind)
}

// ranges splits n work units into at most target contiguous ranges of
// near-equal size, returned as (offset, count) pairs covering [0, n)
// exactly once. n == 0 yields a single empty range so every job has at
// least one shard to carry its (empty) result.
func ranges(n, target int) [][2]int {
	if n <= 0 {
		return [][2]int{{0, n}}
	}
	target = min(max(target, 1), n)
	out := make([][2]int, 0, target)
	base, rem := n/target, n%target
	off := 0
	for i := 0; i < target; i++ {
		count := base
		if i < rem {
			count++
		}
		out = append(out, [2]int{off, count})
		off += count
	}
	return out
}

// PlanRun says how Plan.Run runs the shards a checkpoint does not hold.
type PlanRun struct {
	// Shard runs shard i and returns its result.
	Shard func(ctx context.Context, i int) (json.RawMessage, error)
	// Concurrent starts every missing shard at once and waits for all of
	// them; otherwise they run one after another in index order and the
	// first failure ends the run.
	Concurrent bool
	// Planned, if non-nil, learns which shards the checkpoint supplied,
	// before any shard runs.
	Planned func(adopted []bool)
}

// planProgress is a split job's checkpoint: the results of the shards
// finished so far, in index order. Each entry carries its shard digest,
// so one that does not match the re-derived plan is ignored, not adopted.
type planProgress struct {
	Shards []doneShard `json:"shards"`
}

type doneShard struct {
	Index  int             `json:"index"`
	Digest Digest          `json:"digest"`
	Result json.RawMessage `json:"result"`
}

// Run is the one adopt-run-save-merge loop, shared by a single node
// running checkpoint chunks and the fleet coordinator dispatching shards.
// It adopts the shard results ck holds whose index and digest match this
// plan, runs the rest, saves the finished results after each one lands
// (except the last, which the merge follows at once) and returns the
// merge. On failure Run returns the lowest-index shard's error; the
// checkpoint keeps what finished.
func (p *Plan) Run(ctx context.Context, ck *CheckpointIO, r PlanRun) (json.RawMessage, error) {
	results := p.adopt(ck)
	adopted := make([]bool, len(results))
	var pending []int
	for i, res := range results {
		adopted[i] = res != nil
		if res == nil {
			pending = append(pending, i)
		}
	}
	if r.Planned != nil {
		r.Planned(adopted)
	}
	have := len(results) - len(pending)
	land := func(i int, res json.RawMessage) {
		results[i] = res
		have++
		if ck != nil && have < len(results) {
			p.save(ck, results)
		}
	}

	if !r.Concurrent {
		for _, i := range pending {
			res, err := r.Shard(ctx, i)
			if err != nil {
				return nil, err
			}
			land(i, res)
		}
		return p.Merge(results)
	}

	type landed struct {
		index  int
		result json.RawMessage
		err    error
	}
	// Each shard goroutine sends exactly once; the buffer holds every
	// send, so none blocks, and this goroutine alone saves checkpoints.
	done := make(chan landed, len(pending))
	for _, i := range pending {
		go func(i int) {
			res, err := r.Shard(ctx, i)
			//lint:allow ctxflow -- the buffer holds every send, so this never blocks
			done <- landed{index: i, result: res, err: err}
		}(i)
	}
	failed := make([]error, len(results))
	for range pending {
		//lint:allow ctxflow -- every shard goroutine sends once, and its Shard call honours ctx, so the receive is bounded
		l := <-done
		if l.err != nil {
			failed[l.index] = l.err
			continue
		}
		land(l.index, l.result)
	}
	for _, err := range failed {
		if err != nil {
			return nil, err
		}
	}
	return p.Merge(results)
}

// adopt returns one slot per shard, holding the result ck checkpointed
// for it when the entry's index and digest match this plan. A payload of
// any other shape adopts nothing.
func (p *Plan) adopt(ck *CheckpointIO) []json.RawMessage {
	results := make([]json.RawMessage, len(p.Shards))
	if ck == nil {
		return results
	}
	var prior planProgress
	if raw, ok := ck.Load(); !ok || json.Unmarshal(raw, &prior) != nil {
		return results
	}
	for _, d := range prior.Shards {
		if d.Index >= 0 && d.Index < len(p.Shards) && p.Shards[d.Index].Digest == d.Digest && len(d.Result) > 0 {
			results[d.Index] = d.Result
		}
	}
	return results
}

// save checkpoints every finished shard result.
func (p *Plan) save(ck *CheckpointIO, results []json.RawMessage) {
	var prog planProgress
	for i, res := range results {
		if res != nil {
			prog.Shards = append(prog.Shards, doneShard{Index: i, Digest: p.Shards[i].Digest, Result: res})
		}
	}
	if b, err := json.Marshal(prog); err == nil {
		//lint:allow errsink -- best effort: a lost save costs a rerun after a crash, never a wrong result; the store counts failures and degrades
		_ = ck.Save(b)
	}
}

// Merge folds the shard results (raw JSON, in shard index order, one per
// shard) back into the logical job's result. The output is
// byte-identical to Execute running the logical spec as one chunk:
// results decode into the same typed outcome structs a single run
// marshals — integer/string/bool fields only, fixed field order — and
// the aggregate fields (sweep summaries, campaign execution counts,
// verify tallies) recompute from the merged parts exactly as a single
// run computes them from its own.
func (p *Plan) Merge(results []json.RawMessage) (json.RawMessage, error) {
	if len(results) != len(p.Shards) {
		return nil, fmt.Errorf("serve: merge got %d shard results, want %d", len(results), len(p.Shards))
	}
	for i, r := range results {
		if len(r) == 0 {
			return nil, fmt.Errorf("serve: merge missing result for shard %d", i)
		}
	}
	if len(results) == 1 {
		// Single shard: the shard spec is the logical spec, so its result
		// is the logical result.
		return results[0], nil
	}
	switch p.Spec.Kind {
	case KindSweep:
		return mergeSweep(p.Spec, results)
	case KindCampaign:
		return mergeCampaign(p.Spec, results)
	case KindVerify:
		return mergeVerify(p.Spec, results)
	}
	return nil, fmt.Errorf("serve: kind %q cannot have %d shards", p.Spec.Kind, len(results))
}

func mergeSweep(spec *JobSpec, results []json.RawMessage) (json.RawMessage, error) {
	merged := sim.SweepOutcome{Spec: *spec.Sweep, Points: make([]sim.PointOutcome, 0, spec.Sweep.Seeds)}
	for i, raw := range results {
		var out sim.SweepOutcome
		if err := json.Unmarshal(raw, &out); err != nil {
			return nil, fmt.Errorf("serve: decode sweep shard %d: %w", i, err)
		}
		merged.Points = append(merged.Points, out.Points...)
	}
	merged.Summary = sim.SummarizeOutcomes(merged.Points)
	return marshalMerged(merged)
}

func mergeCampaign(spec *JobSpec, results []json.RawMessage) (json.RawMessage, error) {
	merged := chaos.CampaignOutcome{
		Spec:     *spec.Campaign,
		Trials:   spec.Campaign.Trials,
		Findings: make([]chaos.Artifact, 0),
	}
	for i, raw := range results {
		var out chaos.CampaignOutcome
		if err := json.Unmarshal(raw, &out); err != nil {
			return nil, fmt.Errorf("serve: decode campaign shard %d: %w", i, err)
		}
		merged.Executions += out.Executions
		merged.Findings = append(merged.Findings, out.Findings...)
	}
	return marshalMerged(merged)
}

func mergeVerify(spec *JobSpec, results []json.RawMessage) (json.RawMessage, error) {
	merged := verify.SpecOutcome{Spec: *spec.Verify, Violations: make([]string, 0)}
	for i, raw := range results {
		var out verify.SpecOutcome
		if err := json.Unmarshal(raw, &out); err != nil {
			return nil, fmt.Errorf("serve: decode verify shard %d: %w", i, err)
		}
		merged.Checked += out.Checked
		if merged.PatternsBy == nil {
			merged.PatternsBy = make([]int, len(out.PatternsBy))
		}
		if len(out.PatternsBy) != len(merged.PatternsBy) {
			return nil, fmt.Errorf("serve: verify shard %d patternsBy length %d, want %d",
				i, len(out.PatternsBy), len(merged.PatternsBy))
		}
		for k, v := range out.PatternsBy {
			merged.PatternsBy[k] += v
		}
		// Shard violations are in enumeration order and shards cover
		// ascending index ranges, so concatenation preserves the global
		// enumeration order a single node reports.
		merged.Violations = append(merged.Violations, out.Violations...)
	}
	merged.Consistent = len(merged.Violations) == 0
	return marshalMerged(merged)
}

func marshalMerged(v any) (json.RawMessage, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("serve: encode merged result: %w", err)
	}
	return b, nil
}
