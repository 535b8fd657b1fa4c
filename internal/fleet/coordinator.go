package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/fsio"
)

// The coordinator's job records, replies and errors are the serve
// scheduler's; these names keep fleet callers compiling.
var ErrDraining = serve.ErrDraining

type (
	JobView        = serve.JobStatus
	SubmitResponse = serve.SubmitResponse
	ShardStatus    = serve.ShardStatus
	ShardState     = serve.ShardState
)

const (
	ShardPending = serve.ShardPending
	ShardRunning = serve.ShardRunning
	ShardDone    = serve.ShardDone
	ShardFailed  = serve.ShardFailed
)

// Config parameterises a coordinator.
type Config struct {
	// Workers are the worker mcservd base URLs.
	Workers []string
	// ShardsPerJob is the target shard count per logical job
	// (default 2×len(Workers): enough slack that a reassigned shard does
	// not serialise the whole job behind one worker).
	ShardsPerJob int
	// AssignRetries bounds how many distinct dispatch attempts one shard
	// gets before the logical job fails (default 3).
	AssignRetries int
	// ShardWait bounds one shard dispatch end to end, including the
	// blocking wait on the worker (default 10m).
	ShardWait time.Duration
	// Heartbeat is the registry probe cadence (default 1s).
	Heartbeat time.Duration
	// Shards bounds concurrently running logical jobs: the scheduler's
	// shard count (default 4).
	Shards int
	// CacheEntries bounds the in-memory merged-result cache (default 256).
	CacheEntries int
	// SpoolDir, if non-empty, persists merged results, and shard progress
	// as checkpoints under SpoolDir/checkpoints.
	SpoolDir string
	// JournalPath, if non-empty, enables the write-ahead journal: logical
	// jobs are journaled at admission and replayed on restart.
	JournalPath string
	// FS is the filesystem seam under spool, checkpoints and journal
	// (default: the real filesystem). Tests inject faults here.
	FS fsio.FS
	// Logger, if non-nil, receives structured coordinator logs.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.ShardsPerJob < 1 {
		c.ShardsPerJob = max(1, 2*len(c.Workers))
	}
	if c.AssignRetries < 1 {
		c.AssignRetries = 3
	}
	if c.ShardWait <= 0 {
		c.ShardWait = 10 * time.Minute
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = time.Second
	}
	return c
}

// scheduler is the scheduler config a library-built coordinator runs on.
func (c Config) scheduler() serve.Config {
	return serve.Config{
		Shards:       c.Shards,
		CacheEntries: c.CacheEntries,
		SpoolDir:     c.SpoolDir,
		JournalPath:  c.JournalPath,
		FS:           c.FS,
		Logger:       c.Logger,
	}
}

// Coordinator is a serve.Scheduler whose Runner plans a logical job,
// dispatches its shards to a registry of workers, and merges their
// results. Admission, coalescing, the cache, the journal, drain and the
// job records are the scheduler's; the coordinator adds the dispatch.
type Coordinator struct {
	*serve.Scheduler
	cfg      Config
	registry *Registry
	tail     *serve.LineTail // fleet event NDJSON lines (/v1/fleet/events)

	dispatched atomic.Uint64
	reassigned atomic.Uint64
}

// fleetTailCapacity bounds the fleet event tail; shard lifecycle events
// are far sparser than protocol events, so a small tail covers hours.
const fleetTailCapacity = 4096

// NewCoordinator builds a coordinator. Logical jobs accepted but
// unfinished when a previous process died are replayed from the journal
// at once; their dispatch waits for workers, which Start brings up.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	return newCoordinator(cfg, cfg.scheduler())
}

// newCoordinator builds a coordinator on the given scheduler config, whose
// Runner, job timeout and checkpoint directory it sets.
func newCoordinator(cfg Config, sc serve.Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("fleet: no workers configured")
	}
	cfg.Logger = sc.Logger // dispatch logs where the scheduler logs
	c := &Coordinator{
		cfg:      cfg,
		registry: NewRegistry(cfg.Workers, cfg.Heartbeat),
		tail:     serve.NewLineTail(fleetTailCapacity),
	}
	sc.Runner = c.run
	// Shard progress is each job's checkpoint, kept beside the spool;
	// without a spool a restart has nothing to resume from anyway.
	sc.CheckpointDir = ""
	if sc.SpoolDir != "" {
		sc.CheckpointDir = filepath.Join(sc.SpoolDir, "checkpoints")
	}
	// ShardWait bounds every dispatch; a logical job has no bound of its
	// own, so a reassignment late in a long job is not cut short.
	sc.JobTimeout = -1
	sched, err := serve.NewScheduler(sc)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	c.Scheduler = sched
	return c, nil
}

// Start launches the registry heartbeats.
func (c *Coordinator) Start() { c.registry.Start() }

// Stop aborts immediately: in-flight dispatch is cancelled (the journal
// keeps those jobs pending) and the heartbeats end.
func (c *Coordinator) Stop() {
	c.Scheduler.Stop()
	c.registry.Stop()
}

// event renders one fleet lifecycle event into the coordinator-wide
// NDJSON tail and into the job's own event stream.
func (c *Coordinator) event(log *serve.ShardLog, kind string, fields map[string]any) {
	line := map[string]any{"kind": kind}
	//lint:allow determinism -- copying into a map; json.Marshal sorts keys, so the rendered line is order-independent
	for k, v := range fields {
		line[k] = v
	}
	b, err := json.Marshal(line)
	if err != nil {
		return
	}
	c.tail.Append(b)
	log.Line(b)
}

// run is the coordinator's serve.Runner: it plans the logical job and
// feeds a concurrent dispatch to serve's adopt-run-save-merge loop
// (serve.Plan.Run), keeping only the shard table and the lifecycle
// events. Planning is deterministic, so a job replayed after a crash
// re-derives the same shard table and reruns only what its checkpoint
// lacks.
func (c *Coordinator) run(ctx context.Context, spec *serve.JobSpec, opt serve.ExecOptions) (json.RawMessage, error) {
	plan, err := serve.NewPlan(spec, c.cfg.ShardsPerJob)
	if err != nil {
		return nil, err
	}
	log := opt.Shards
	short := plan.Digest.Short()
	table := make([]serve.ShardStatus, len(plan.Shards))
	merged, err := plan.Run(ctx, opt.Checkpoint, serve.PlanRun{
		Concurrent: true,
		Planned: func(adopted []bool) {
			n := 0
			for i, sh := range plan.Shards {
				table[i] = serve.ShardStatus{Index: i, Digest: sh.Digest, State: ShardPending}
				if adopted[i] {
					table[i].State, table[i].Cached = ShardDone, true
					n++
				}
			}
			log.Init(table)
			c.event(log, "job-planned", map[string]any{
				"job": short, "jobKind": string(spec.Kind), "shards": len(plan.Shards), "adopted": n,
			})
		},
		Shard: func(ctx context.Context, i int) (json.RawMessage, error) {
			res, err := c.runShard(ctx, plan, log, table[i])
			if err != nil {
				return nil, fmt.Errorf("shard %d: %w", i, err)
			}
			return res, nil
		},
	})
	if err != nil {
		kind := "job-failed"
		if ctx.Err() != nil {
			kind = "job-aborted" // shutdown: the journal keeps the job pending
		}
		c.event(log, kind, map[string]any{"job": short, "error": err.Error()})
		return nil, err
	}
	c.event(log, "job-done", map[string]any{"job": short})
	return merged, nil
}

// runShard dispatches one shard until it succeeds, permanently fails,
// or exhausts its reassignment budget. Worker loss (transport error,
// timeout, death mid-wait) reassigns to the next-best worker; a
// deterministic job failure on the worker fails the shard outright —
// the same spec would fail anywhere.
func (c *Coordinator) runShard(ctx context.Context, plan *Plan, log *serve.ShardLog, st serve.ShardStatus) (json.RawMessage, error) {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.ShardWait)
	defer cancel()
	sh := plan.Shards[st.Index]
	short := plan.Digest.Short()
	st.State = ShardRunning
	log.Set(st.Index, st)
	fail := func(err error) (json.RawMessage, error) {
		st.State, st.Error = ShardFailed, err.Error()
		log.Set(st.Index, st)
		c.event(log, "shard-failed", map[string]any{"job": short, "shard": st.Index, "error": err.Error()})
		return nil, err
	}

	tried := make(map[string]bool)
	var lastErr error
	for attempt := 0; attempt < c.cfg.AssignRetries; attempt++ {
		w := c.registry.Pick(tried)
		if w == nil && len(tried) > 0 {
			// Every untried worker is unusable; forgive earlier transport
			// failures and allow a second pass over recovered workers.
			tried = make(map[string]bool)
			w = c.registry.Pick(tried)
		}
		if w == nil {
			// No usable worker at all: wait out a heartbeat for one to
			// come back rather than burning the attempt budget.
			select {
			case <-ctx.Done():
				return fail(fmt.Errorf("no usable worker: %w", ctx.Err()))
			case <-time.After(c.cfg.Heartbeat):
			}
			attempt--
			continue
		}

		st.Attempts++
		st.Worker = w.URL
		log.Set(st.Index, st)
		kind := "shard-dispatched"
		if attempt > 0 {
			c.reassigned.Add(1)
			kind = "shard-reassigned"
		}
		c.event(log, kind, map[string]any{"job": short, "shard": st.Index, "worker": w.URL})
		c.dispatched.Add(1)

		resp, err := w.Client.SubmitRetry(ctx, sh.Spec, -1, 3)
		c.registry.Release(w)
		if err != nil {
			lastErr = err
			tried[w.URL] = true
			if lg := c.cfg.Logger; lg != nil {
				lg.Warn("fleet shard dispatch failed", "job", short, "shard", st.Index, "worker", w.URL, "err", err)
			}
			if ctx.Err() != nil {
				break
			}
			continue
		}
		switch resp.Status.State {
		case serve.StateDone:
			// Workers indent their HTTP responses; compact the shard result
			// so single-shard passthrough and merges are byte-identical to
			// what a single-node runner produces.
			result := resp.Status.Result
			if compacted, err := json.Marshal(result); err == nil {
				result = compacted
			}
			st.State, st.QueuedMs, st.RunMs = ShardDone, resp.Status.QueuedMs, resp.Status.RunMs
			log.Set(st.Index, st)
			c.event(log, "shard-done", map[string]any{
				"job": short, "shard": st.Index, "worker": w.URL, "runMs": resp.Status.RunMs,
			})
			return result, nil
		case serve.StateFailed:
			// Deterministic failure: the spec itself fails; reassignment
			// cannot change a pure function's result.
			return fail(fmt.Errorf("worker %s: %s", w.URL, resp.Status.Error))
		default:
			// The wait returned non-terminal (worker drain or wait budget);
			// another worker can pick the shard up.
			lastErr = fmt.Errorf("worker %s returned non-terminal state %q", w.URL, resp.Status.State)
			tried[w.URL] = true
		}
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("no dispatch attempt succeeded")
	}
	return fail(fmt.Errorf("after %d attempts: %w", c.cfg.AssignRetries, lastErr))
}
