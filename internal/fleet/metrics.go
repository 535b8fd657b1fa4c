package fleet

import (
	"io"

	"repro/internal/obs"
	"repro/internal/serve"
)

// JobCounters are the coordinator's logical-job admission and
// completion totals, read from its scheduler: Submitted counts every
// admission (coalesced and cached ones too), Cached the merged-result
// cache hits, Completed the executions that did not fail.
type JobCounters struct {
	Submitted        uint64 `json:"submitted"`
	Coalesced        uint64 `json:"coalesced"`
	Cached           uint64 `json:"cached"`
	Completed        uint64 `json:"completed"`
	Failed           uint64 `json:"failed"`
	Recovered        uint64 `json:"recovered"`
	RejectedBusy     uint64 `json:"rejected_busy"`
	RejectedDraining uint64 `json:"rejected_draining"`
}

// ShardCounters are the coordinator's shard dispatch totals.
type ShardCounters struct {
	Dispatched uint64 `json:"dispatched"`
	Reassigned uint64 `json:"reassigned"`
}

// Stats is the fleet-wide GET /v1/stats reply: the coordinator's own
// totals plus the last-observed state of every worker — the federated
// view a dashboard needs without scraping each worker separately.
type Stats struct {
	Draining      bool           `json:"draining"`
	UptimeSeconds float64        `json:"uptime_seconds"`
	Jobs          JobCounters    `json:"jobs"`
	Shards        ShardCounters  `json:"shards"`
	ActiveJobs    int            `json:"active_jobs"`
	QueueHeadroom int            `json:"queue_headroom"`
	WorkersUsable int            `json:"workers_usable"`
	Workers       []WorkerStatus `json:"workers"`
}

// Stats snapshots the coordinator: the scheduler's admission and
// execution totals in the fleet's terms, the dispatch totals, and the
// registry's view of every worker.
func (c *Coordinator) Stats() Stats {
	st := c.Scheduler.Stats()
	active := 0
	for _, j := range c.Records() {
		if s := j.Status().State; s == serve.StateQueued || s == serve.StateRunning {
			active++
		}
	}
	return Stats{
		Draining:      st.Draining,
		UptimeSeconds: st.UptimeSeconds,
		Jobs: JobCounters{
			Submitted:        st.Jobs.Submitted,
			Coalesced:        st.Jobs.Coalesced,
			Cached:           st.Cache.Hits,
			Completed:        st.Jobs.Executed - min(st.Jobs.Failed, st.Jobs.Executed), // read apart, so a failure can land in between
			Failed:           st.Jobs.Failed,
			Recovered:        st.Durability.RecoveredJobs,
			RejectedBusy:     st.Jobs.RejectedQueueFull,
			RejectedDraining: st.Jobs.RejectedDraining,
		},
		Shards: ShardCounters{
			Dispatched: c.dispatched.Load(),
			Reassigned: c.reassigned.Load(),
		},
		ActiveJobs:    active,
		QueueHeadroom: c.registry.QueueHeadroom(),
		WorkersUsable: c.registry.Usable(),
		Workers:       c.registry.Snapshot(),
	}
}

// WriteMetrics renders the fleet stats in Prometheus text exposition
// format — the coordinator's GET /metrics surface. Coordinator-level
// families carry the mc_fleet_ prefix; per-worker state is federated
// into labelled series (one series per worker URL), so one scrape of
// the coordinator covers the whole fleet's queue occupancy and
// liveness. The output passes obs.LintProm, which CI enforces.
func WriteMetrics(w io.Writer, st Stats) error {
	p := obs.NewPromWriter(w)
	b := func(v bool) float64 {
		if v {
			return 1
		}
		return 0
	}
	gauge := func(name, help string, v float64) {
		p.Family(name, "gauge", help)
		p.Sample(name, nil, v)
	}
	counter := func(name, help string, v uint64) {
		p.Family(name, "counter", help)
		p.Sample(name, nil, float64(v))
	}

	gauge("mc_fleet_uptime_seconds", "Seconds since the coordinator started.", st.UptimeSeconds)
	gauge("mc_fleet_draining", "1 while the coordinator refuses new work for shutdown.", b(st.Draining))

	counter("mc_fleet_jobs_submitted_total", "Logical jobs admitted, including cache hits and coalesced duplicates.", st.Jobs.Submitted)
	counter("mc_fleet_jobs_coalesced_total", "Submissions merged into an identical in-flight logical job.", st.Jobs.Coalesced)
	counter("mc_fleet_jobs_cached_total", "Merged-result cache hits.", st.Jobs.Cached)
	counter("mc_fleet_jobs_completed_total", "Logical jobs merged to completion.", st.Jobs.Completed)
	counter("mc_fleet_jobs_failed_total", "Logical jobs that failed (shard failure, merge error or shutdown abort).", st.Jobs.Failed)
	counter("mc_fleet_jobs_recovered_total", "Logical jobs replayed from the fleet journal after a restart.", st.Jobs.Recovered)
	counter("mc_fleet_jobs_rejected_busy_total", "Submissions 429'd because the coordinator's queue was full.", st.Jobs.RejectedBusy)
	counter("mc_fleet_jobs_rejected_draining_total", "Submissions rejected during drain.", st.Jobs.RejectedDraining)

	counter("mc_fleet_shards_dispatched_total", "Shard dispatch attempts sent to workers.", st.Shards.Dispatched)
	counter("mc_fleet_shards_reassigned_total", "Shards re-dispatched after losing their worker.", st.Shards.Reassigned)

	gauge("mc_fleet_active_jobs", "Logical jobs currently dispatching.", float64(st.ActiveJobs))
	gauge("mc_fleet_queue_headroom", "Aggregate free queue slots across usable workers.", float64(st.QueueHeadroom))
	gauge("mc_fleet_workers_usable", "Workers currently accepting shards.", float64(st.WorkersUsable))
	gauge("mc_fleet_workers", "Configured workers.", float64(len(st.Workers)))

	label := func(w WorkerStatus) []obs.Label {
		return []obs.Label{{Name: "worker", Value: w.URL}}
	}
	p.Family("mc_fleet_worker_up", "gauge", "1 while the worker answers heartbeats (healthy or degraded).")
	for _, ws := range st.Workers {
		up := ws.State == WorkerHealthy || ws.State == WorkerDegraded
		p.Sample("mc_fleet_worker_up", label(ws), b(up))
	}
	p.Family("mc_fleet_worker_queue_depth", "gauge", "Worker-reported jobs waiting across its shard queues.")
	for _, ws := range st.Workers {
		p.Sample("mc_fleet_worker_queue_depth", label(ws), float64(ws.Depth))
	}
	p.Family("mc_fleet_worker_queue_capacity", "gauge", "Worker-reported aggregate shard-queue capacity.")
	for _, ws := range st.Workers {
		p.Sample("mc_fleet_worker_queue_capacity", label(ws), float64(ws.Capacity))
	}
	p.Family("mc_fleet_worker_executed_total", "counter", "Worker-reported jobs executed since its start.")
	for _, ws := range st.Workers {
		p.Sample("mc_fleet_worker_executed_total", label(ws), float64(ws.Executed))
	}
	p.Family("mc_fleet_worker_inflight", "gauge", "Shards this coordinator currently has running on the worker.")
	for _, ws := range st.Workers {
		p.Sample("mc_fleet_worker_inflight", label(ws), float64(ws.Inflight))
	}
	p.Family("mc_fleet_worker_state", "gauge", "Worker state as an enum: 0 dead, 1 draining, 2 degraded, 3 healthy.")
	for _, ws := range st.Workers {
		p.Sample("mc_fleet_worker_state", label(ws), float64(stateEnum(ws.State)))
	}

	if err := p.Err(); err != nil {
		return err
	}
	return p.Flush()
}

func stateEnum(s WorkerState) int {
	switch s {
	case WorkerDraining:
		return 1
	case WorkerDegraded:
		return 2
	case WorkerHealthy:
		return 3
	}
	return 0
}
