package fleet

import (
	"net/http"

	"repro/internal/serve"
)

// NewServer is the HTTP face of a Coordinator: serve's /v1 job API over
// its scheduler, plus the fleet-only /v1/fleet (worker pool and job
// table) and /v1/fleet/events (coordinator-wide event stream), and the
// fleet-shaped /v1/stats and /metrics in place of a worker's.
func NewServer(c *Coordinator) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", serve.NewServer(c.Scheduler))
	mux.HandleFunc("GET /v1/fleet", func(w http.ResponseWriter, r *http.Request) {
		serve.WriteJSON(w, http.StatusOK, c.view())
	})
	mux.HandleFunc("GET /v1/fleet/events", func(w http.ResponseWriter, r *http.Request) {
		serve.StreamTail(w, r, c.tail, nil, nil)
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		serve.WriteJSON(w, http.StatusOK, c.Stats())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_ = WriteMetrics(w, c.Stats())
	})
	return mux
}

// FleetView is the GET /v1/fleet reply: the worker pool and the job
// records the scheduler still holds, oldest first.
type FleetView struct {
	Workers []WorkerStatus `json:"workers"`
	Jobs    []JobView      `json:"jobs"`
}

// view snapshots the worker pool and the job table.
func (c *Coordinator) view() FleetView {
	jobs := c.Records()
	v := FleetView{Workers: c.registry.Snapshot(), Jobs: make([]JobView, 0, len(jobs))}
	for _, j := range jobs {
		v.Jobs = append(v.Jobs, j.Status())
	}
	return v
}
