package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/serve"
)

// TestCoordinatorHTTPContract drives a coordinator over two workers
// through serve.Client: the /v1 job API it shares with a worker, the
// per-shard trace and event stream a split job adds, and the fleet-shaped
// stats and metrics.
func TestCoordinatorHTTPContract(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet integration test")
	}
	var urls []string
	for i := 0; i < 2; i++ {
		u, _ := newWorker(t, nil)
		urls = append(urls, u)
	}
	coord := newFleet(t, Config{Workers: urls, ShardsPerJob: 4})
	ts := httptest.NewServer(NewServer(coord))
	t.Cleanup(ts.Close)
	client := serve.NewClient(ts.URL)
	ctx := context.Background()

	raw := `{"sweep":{"protocol":"majorcan_5","nodes":5,"frames":60,"berStar":0.02,"seed":7,"seeds":8,"eofOnly":true,"resetCounters":true}}`
	resp, err := client.Submit(ctx, decodeSpec(t, raw), -1)
	if err != nil {
		t.Fatal(err)
	}
	// A waited submit answers 200 exactly when the job is terminal.
	if resp.Status.State != serve.StateDone {
		t.Fatalf("waited submit ended %s: %s", resp.Status.State, resp.Status.Error)
	}
	shards := resp.Status.Shards
	if len(shards) < 2 {
		t.Fatalf("job ran as %d shard(s); want the fleet path", len(shards))
	}
	st, err := client.Job(ctx, resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(st)
	want, _ := json.Marshal(resp.Status)
	if !bytes.Equal(got, want) {
		t.Fatalf("GET /v1/jobs/{id} differs from the submit reply\nget:    %s\nsubmit: %s", got, want)
	}

	data, err := client.Trace(ctx, resp.ID)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Pid  int64  `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	dispatch := 0
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" && e.Pid == 0 && e.Name == "dispatch" {
			dispatch++
		}
	}
	if dispatch != len(shards) {
		t.Fatalf("trace has %d pid-0 dispatch spans, want one per shard (%d)", dispatch, len(shards))
	}

	kinds := map[string]int{}
	err = client.Events(ctx, resp.ID, func(line []byte) error {
		var ev struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			return err
		}
		kinds[ev.Kind]++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if kinds["shard-dispatched"] != len(shards) || kinds["shard-done"] != len(shards) || kinds["job-done"] != 1 {
		t.Fatalf("event stream kinds %v, want a dispatch and a done line per shard and one job-done", kinds)
	}

	for _, path := range []string{"/v1/jobs/..%2F..%2Fjournal.wal", "/v1/jobs/..%2Fx/trace", "/v1/jobs/..%2Fx/events"} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s = %d, want 404", path, r.StatusCode)
		}
	}

	var stats Stats
	if err := client.GetJSON(ctx, "/v1/stats", &stats); err != nil {
		t.Fatal(err)
	}
	if stats.WorkersUsable != 2 {
		t.Fatalf("stats report %d usable workers, want 2", stats.WorkersUsable)
	}
	metrics, err := client.MetricsText(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.LintProm(bytes.NewReader(metrics)); err != nil {
		t.Fatalf("coordinator /metrics: %v", err)
	}
	if !strings.Contains(string(metrics), "\nmc_fleet_jobs_completed_total 1\n") {
		t.Fatalf("coordinator /metrics does not count the completed job:\n%s", metrics)
	}
}

// TestCoordinatorJobTableBounded submits more distinct jobs than the
// scheduler keeps records for and checks that neither the coordinator's
// records nor the /v1/fleet job list grow past that limit.
func TestCoordinatorJobTableBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet integration test")
	}
	stub := func(context.Context, *serve.JobSpec, serve.ExecOptions) (json.RawMessage, error) {
		return json.RawMessage(`{"stub":true}`), nil
	}
	u, _ := newWorker(t, stub)
	coord := newFleet(t, Config{Workers: []string{u}, Shards: 1, CacheEntries: 1})
	ts := httptest.NewServer(NewServer(coord))
	t.Cleanup(ts.Close)

	// The scheduler keeps CacheEntries + Shards×(QueueDepth+1) records;
	// the queue depth is its default of 64.
	const limit = 1 + 1*(64+1)
	for i := 0; i < limit+20; i++ {
		raw := fmt.Sprintf(`{"sweep":{"protocol":"can","nodes":3,"frames":10,"berStar":0.01,"seed":%d,"seeds":1}}`, i)
		job, _, err := coord.Submit(decodeSpec(t, raw))
		if err != nil {
			t.Fatal(err)
		}
		<-job.Done()
		if st := job.Status(); st.State != serve.StateDone {
			t.Fatalf("job %d ended %s: %s", i, st.State, st.Error)
		}
	}
	if n := len(coord.Records()); n > limit {
		t.Fatalf("coordinator holds %d job records, want at most %d", n, limit)
	}
	var view FleetView
	if err := serve.NewClient(ts.URL).GetJSON(context.Background(), "/v1/fleet", &view); err != nil {
		t.Fatal(err)
	}
	if len(view.Jobs) > limit {
		t.Fatalf("/v1/fleet lists %d jobs, want at most %d", len(view.Jobs), limit)
	}
}
