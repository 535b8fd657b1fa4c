package fleet

import (
	"context"
	"sync"
	"time"

	"repro/internal/serve"
)

// WorkerState classifies what the registry last learned about a worker.
type WorkerState string

const (
	// WorkerHealthy: answering heartbeats, all durability stores intact.
	WorkerHealthy WorkerState = "healthy"
	// WorkerDegraded: answering, but some durability store has failed
	// over to memory — still dispatchable (results are re-derivable),
	// deprioritised below healthy peers.
	WorkerDegraded WorkerState = "degraded"
	// WorkerDraining: answered 503/draining; no new shards go there.
	WorkerDraining WorkerState = "draining"
	// WorkerDead: missed deadFailures consecutive heartbeats; shards
	// assigned there get reassigned. Dead workers keep being probed (with
	// backoff) and rejoin on the first successful heartbeat.
	WorkerDead WorkerState = "dead"
)

// deadFailures is how many consecutive heartbeat failures turn a worker
// dead. One lost datagram's worth of tolerance, not more: shards blocked
// on a dead worker are stalled work.
const deadFailures = 2

// probeBackoffMax caps the dead-worker probe backoff in heartbeat
// intervals: a long-dead worker is probed every 8th tick rather than
// hammered every tick while it restarts.
const probeBackoffMax = 8

// Worker is one registry entry: a worker mcservd and the state the
// heartbeat loop last observed on it.
type Worker struct {
	// URL is the worker's service root; it doubles as its identity.
	URL string
	// Client is the /v1 API client used for heartbeats and dispatch.
	Client *serve.Client

	mu        sync.Mutex
	state     WorkerState
	health    serve.HealthResponse
	depth     int // summed shard-queue depth from /v1/stats
	capacity  int // summed shard-queue capacity
	executed  uint64
	failures  int // consecutive heartbeat failures
	skip      int // probe-backoff ticks left while dead
	inflight  int // shards this coordinator currently has running there
	lastBeat  time.Time
	lastError string
}

// WorkerStatus is the serialisable registry view of one worker.
type WorkerStatus struct {
	URL       string      `json:"url"`
	State     WorkerState `json:"state"`
	Version   string      `json:"version,omitempty"`
	GoVersion string      `json:"goVersion,omitempty"`
	Depth     int         `json:"depth"`
	Capacity  int         `json:"capacity"`
	Executed  uint64      `json:"executed"`
	Inflight  int         `json:"inflight"`
	Error     string      `json:"error,omitempty"`
}

// Registry tracks the worker pool: it heartbeats every worker on a
// fixed cadence via GET /v1/healthz (state, durability, build identity)
// and GET /v1/stats (queue depths, federated into the coordinator's
// stats and metrics).
type Registry struct {
	workers   []*Worker // fixed after construction; per-worker state has its own lock
	heartbeat time.Duration
	// pickMu makes a Pick's choice and its reservation one step, so
	// shards dispatched together spread over the least-loaded workers
	// instead of all reserving the one they each saw idle.
	pickMu sync.Mutex

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewRegistry builds a registry over the given worker base URLs.
// Workers start dead — the first heartbeat round promotes the live
// ones, so nothing dispatches to a worker that was never seen.
func NewRegistry(urls []string, heartbeat time.Duration) *Registry {
	if heartbeat <= 0 {
		heartbeat = time.Second
	}
	r := &Registry{heartbeat: heartbeat, stop: make(chan struct{})}
	for _, u := range urls {
		r.workers = append(r.workers, &Worker{
			URL:    u,
			Client: serve.NewClient(u),
			state:  WorkerDead,
		})
	}
	return r
}

// Start launches the heartbeat loop. Stop joins it.
func (r *Registry) Start() {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		// An immediate first round, so a coordinator that starts after its
		// workers can dispatch without waiting out a full interval.
		r.beatAll()
		tick := time.NewTicker(r.heartbeat)
		defer tick.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-tick.C:
				r.beatAll()
			}
		}
	}()
}

// Stop ends the heartbeat loop and waits for it.
func (r *Registry) Stop() {
	close(r.stop)
	r.wg.Wait()
}

// beatAll probes every worker once, honouring dead-worker backoff.
func (r *Registry) beatAll() {
	for _, w := range r.workers {
		w.mu.Lock()
		skip := w.state == WorkerDead && w.skip > 0
		if skip {
			w.skip--
		}
		w.mu.Unlock()
		if !skip {
			r.beat(w)
		}
	}
}

// beat probes one worker: healthz classifies it, stats (best-effort)
// updates its queue occupancy. All network I/O happens before the
// worker lock is taken.
func (r *Registry) beat(w *Worker) {
	ctx, cancel := context.WithTimeout(context.Background(), r.heartbeat)
	defer cancel()
	h, err := w.Client.Health(ctx)
	var st *serve.Stats
	if err == nil {
		// A stats failure alone does not kill the worker — healthz just
		// answered; the beat simply keeps the previous occupancy numbers.
		st, _ = w.Client.Stats(ctx)
	}

	w.mu.Lock()
	defer w.mu.Unlock()
	if err != nil {
		w.failures++
		w.lastError = err.Error()
		if w.failures >= deadFailures && w.state != WorkerDead {
			w.state = WorkerDead
			w.skip = 0
		} else if w.state == WorkerDead {
			// Exponential probe backoff while it stays dead. Workers
			// start in the dead state, so failures can still be below
			// the threshold here — clamp the exponent at zero.
			shift := w.failures - deadFailures
			if shift < 0 {
				shift = 0
			}
			backoff := 1 << shift
			if backoff > probeBackoffMax {
				backoff = probeBackoffMax
			}
			w.skip = backoff - 1
		}
		return
	}
	w.failures = 0
	w.skip = 0
	w.lastError = ""
	w.health = *h
	//lint:allow determinism -- registry heartbeat timestamps; not simulation state
	w.lastBeat = time.Now()
	switch {
	case h.Status == "draining":
		w.state = WorkerDraining
	case h.Degraded():
		w.state = WorkerDegraded
	default:
		w.state = WorkerHealthy
	}
	if st != nil {
		depth, capacity := 0, 0
		for _, sh := range st.Shards {
			depth += sh.Depth
			capacity += sh.Capacity
		}
		w.depth, w.capacity = depth, capacity
		w.executed = st.Jobs.Executed
	}
}

// Pick selects the dispatch target for a shard: the healthy worker with
// the fewest coordinator-inflight shards, falling back to degraded
// workers when no healthy one is available, skipping URLs in exclude.
// It reserves a slot on the returned worker (undo with Release). Nil
// means no worker is currently usable.
func (r *Registry) Pick(exclude map[string]bool) *Worker {
	r.pickMu.Lock()
	defer r.pickMu.Unlock()
	pick := func(wantDegraded bool) *Worker {
		var best *Worker
		bestLoad := 0
		for _, w := range r.workers {
			if exclude[w.URL] {
				continue
			}
			w.mu.Lock()
			ok := (w.state == WorkerHealthy && !wantDegraded) || (w.state == WorkerDegraded && wantDegraded)
			load := w.inflight
			w.mu.Unlock()
			if !ok {
				continue
			}
			if best == nil || load < bestLoad {
				best, bestLoad = w, load
			}
		}
		return best
	}
	best := pick(false)
	if best == nil {
		best = pick(true)
	}
	if best != nil {
		best.mu.Lock()
		best.inflight++
		best.mu.Unlock()
	}
	return best
}

// Release returns a slot reserved by Pick.
func (r *Registry) Release(w *Worker) {
	w.mu.Lock()
	if w.inflight > 0 {
		w.inflight--
	}
	w.mu.Unlock()
}

// QueueHeadroom sums (capacity - depth - inflight) over dispatchable
// workers: the free queue slots the pool last reported. Zero or negative
// means every usable queue is full; shards sent then wait in worker
// 429 retries.
func (r *Registry) QueueHeadroom() int {
	head := 0
	for _, w := range r.workers {
		w.mu.Lock()
		if w.state == WorkerHealthy || w.state == WorkerDegraded {
			head += w.capacity - w.depth - w.inflight
		}
		w.mu.Unlock()
	}
	return head
}

// Usable reports how many workers are currently dispatchable.
func (r *Registry) Usable() int {
	n := 0
	for _, w := range r.workers {
		w.mu.Lock()
		if w.state == WorkerHealthy || w.state == WorkerDegraded {
			n++
		}
		w.mu.Unlock()
	}
	return n
}

// Snapshot returns the serialisable registry state in construction
// order (stable across calls, so /v1/fleet output is diffable).
func (r *Registry) Snapshot() []WorkerStatus {
	out := make([]WorkerStatus, 0, len(r.workers))
	for _, w := range r.workers {
		w.mu.Lock()
		out = append(out, WorkerStatus{
			URL:       w.URL,
			State:     w.state,
			Version:   w.health.Version,
			GoVersion: w.health.GoVersion,
			Depth:     w.depth,
			Capacity:  w.capacity,
			Executed:  w.executed,
			Inflight:  w.inflight,
			Error:     w.lastError,
		})
		w.mu.Unlock()
	}
	return out
}
