package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/verify"
)

// ExecOptions carries the execution-side knobs a job run gets from the
// scheduler: knobs that change how fast a job runs and what telemetry it
// emits, never what result it produces — they are invisible to the job
// digest.
type ExecOptions struct {
	// Parallelism bounds concurrent simulations inside one job (sweep
	// points, verify patterns).
	Parallelism int
	// Events, if non-nil, receives the live protocol event stream. Sweep
	// jobs emit from several worker goroutines, so the sink must accept
	// concurrent producers (obs.Locked).
	Events obs.Sink
	// Metrics, if non-nil, aggregates the job's simulation totals;
	// the scheduler passes a fork of its shared registry.
	Metrics *obs.Metrics
	// Checkpoint, if non-nil, lets long-running kinds (sweeps, campaigns)
	// persist their finished chunks and resume after a crash. Like the
	// other options it never changes what result a job produces — a
	// checkpoint holds only finished chunks, so a resumed run is
	// byte-identical to an uninterrupted one.
	Checkpoint *CheckpointIO
	// Shards, if non-nil, is where a Runner that splits the job across
	// other services records its shard table and lifecycle lines. Runs
	// that execute locally ignore it.
	Shards *ShardLog
}

// CheckpointIO is the progress plumbing a job run gets from the
// scheduler: Load returns the previously persisted payload (if any),
// Save replaces it, Every sets the chunk size in work units (sweep
// seeds, campaign trials).
type CheckpointIO struct {
	Load  func() (json.RawMessage, bool)
	Save  func(json.RawMessage) error
	Every int
}

// Runner executes one normalized job spec and returns its canonical JSON
// result. The scheduler's default is Execute; tests substitute stubs.
type Runner func(ctx context.Context, spec *JobSpec, opt ExecOptions) (json.RawMessage, error)

// Transient wraps an error to mark it retryable: the scheduler re-runs
// the job (bounded by its retry budget) instead of failing it.
// Simulation outcomes are deterministic and never transient; the marker
// exists for infrastructure faults around the run.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

type transientError struct{ err error }

func (t *transientError) Error() string { return "transient: " + t.err.Error() }
func (t *transientError) Unwrap() error { return t.err }

// IsTransient reports whether err is marked retryable.
func IsTransient(err error) bool {
	var t *transientError
	return errors.As(err, &t)
}

// Execute runs one job spec to completion: the default Runner. With a
// checkpoint store, a sweep or a campaign runs as a Plan of chunks
// (see chunks) through Plan.Run, so a job that crashed part-way resumes
// from its finished chunks; the merge is byte-identical to one
// uninterrupted run. A cancelled or expired ctx fails the job — partial
// results are never returned, so nothing incomplete can reach the
// content-addressed cache.
func Execute(ctx context.Context, spec *JobSpec, opt ExecOptions) (json.RawMessage, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	n := chunks(spec, opt.Checkpoint)
	if n == 1 {
		return execute(ctx, spec, opt)
	}
	plan, err := NewPlan(spec, n)
	if err != nil {
		return nil, err
	}
	return plan.Run(ctx, opt.Checkpoint, PlanRun{
		Shard: func(ctx context.Context, i int) (json.RawMessage, error) {
			return execute(ctx, plan.Shards[i].Spec, opt)
		},
	})
}

// chunks is how many checkpoint chunks Execute splits a job into:
// ceil(units/Every) for a sweep's seeds or a campaign's trials. A job
// runs as one chunk, with no checkpoint I/O, when there is no checkpoint
// store, when it is a verify, a script or a stop-at-first campaign, or
// when it has fewer units than Every.
func chunks(spec *JobSpec, ck *CheckpointIO) int {
	if ck == nil || ck.Every < 1 {
		return 1
	}
	units := 0
	switch spec.Kind {
	case KindSweep:
		units = spec.Sweep.Seeds
	case KindCampaign:
		if !spec.Campaign.StopAtFirst {
			units = spec.Campaign.Trials
		}
	}
	return max(1, (units+ck.Every-1)/ck.Every)
}

// execute runs one valid spec as a single chunk.
func execute(ctx context.Context, spec *JobSpec, opt ExecOptions) (json.RawMessage, error) {
	var (
		out any
		err error
	)
	switch spec.Kind {
	case KindSweep:
		var tel sim.PointTelemetry
		if opt.Events != nil || opt.Metrics != nil {
			tel = func(int, int64) (obs.Sink, *obs.Metrics) {
				var m *obs.Metrics
				if opt.Metrics != nil {
					m = opt.Metrics.Fork()
				}
				return opt.Events, m
			}
		}
		out, err = sim.RunSweepSpec(ctx, *spec.Sweep, opt.Parallelism, tel)
	case KindCampaign:
		out, err = chaos.RunCampaignSpec(ctx, *spec.Campaign,
			chaos.Telemetry{Events: opt.Events, Metrics: opt.Metrics}, nil)
	case KindVerify:
		out, err = verify.RunSpec(ctx, *spec.Verify, opt.Parallelism)
	case KindScript:
		var r *chaos.Result
		r, err = chaos.RunObservedContext(ctx, *spec.Script, chaos.Telemetry{Events: opt.Events, Metrics: opt.Metrics})
		if err == nil {
			out = &ScriptOutcome{
				Script:     *spec.Script,
				Verdict:    chaos.VerdictOf(r, chaos.DefaultProbes()),
				FramesSent: r.FramesSent,
				Incomplete: r.Incomplete,
			}
		}
	default:
		return nil, fmt.Errorf("serve: unknown job kind %q", spec.Kind)
	}
	if err != nil {
		return nil, err
	}
	// A sweep interrupted by ctx returns a partial aggregate instead of
	// an error (the CLI contract); for the cache that partial result is
	// incomplete, so surface the cancellation as a failure here.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res, err := json.Marshal(out)
	if err != nil {
		return nil, fmt.Errorf("serve: encode job result: %w", err)
	}
	return res, nil
}
