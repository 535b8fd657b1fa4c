package main

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/serve"
	"repro/internal/sim"
)

// stubDirect stands in for the in-process reference run: a sweep
// outcome with no points, which every daemon result must equal.
func stubDirect(_ context.Context, spec *serve.JobSpec) ([]byte, counts, error) {
	b, err := json.Marshal(&sim.SweepOutcome{Spec: *spec.Sweep, Points: []sim.PointOutcome{}})
	return b, counts{}, err
}

// executedAndRead returns a job's executed sample and a GET read of
// it, both carrying the reference bytes.
func executedAndRead(t *testing.T) (exec, read *sample) {
	t.Helper()
	j := (&sweepGen{seed: 1}).next()
	want, _, err := stubDirect(context.Background(), j.Spec)
	if err != nil {
		t.Fatal(err)
	}
	ok := func(adm string, get bool) *sample {
		return &sample{Job: j, Get: get, Code: http.StatusOK, Admission: adm, State: serve.StateDone,
			Result: append([]byte(nil), want...)}
	}
	return ok("enqueued", false), ok("", true)
}

func failedRatio(v *verdict) float64 { return float64(v.Failed) / float64(v.Attempted) }

func TestCheckCountsFailures(t *testing.T) {
	ctx := context.Background()

	exec, read := executedAndRead(t)
	if v := checkSamples(ctx, []*sample{exec, read}, stubDirect, 1); v.Failed != 0 || v.Reads != 1 || len(v.Executed) != 1 {
		t.Fatalf("clean run: failed=%d reads=%d executed=%d (%v)", v.Failed, v.Reads, len(v.Executed), v.reasonList())
	}

	exec, read = executedAndRead(t)
	read.Result[len(read.Result)/2] ^= 1
	if v := checkSamples(ctx, []*sample{exec, read}, stubDirect, 1); v.Failed != 1 || failedRatio(v) != 0.5 {
		t.Errorf("tampered read: failed=%d ratio=%g (%v)", v.Failed, failedRatio(v), v.reasonList())
	}

	exec, _ = executedAndRead(t)
	exec.Result[len(exec.Result)/2] ^= 1
	if v := checkSamples(ctx, []*sample{exec}, stubDirect, 1); v.Failed != 1 || len(v.Executed) != 0 {
		t.Errorf("tampered executed result: failed=%d executed=%d", v.Failed, len(v.Executed))
	}

	exec, _ = executedAndRead(t)
	refused := &sample{Job: exec.Job, Code: http.StatusTooManyRequests}
	if v := checkSamples(ctx, []*sample{exec, refused}, stubDirect, 1); v.Failed != 1 || v.Refused != 1 || failedRatio(v) != 0.5 {
		t.Errorf("429: failed=%d refused=%d ratio=%g", v.Failed, v.Refused, failedRatio(v))
	}

	exec, _ = executedAndRead(t)
	exec.Admission = "cached" // answered from the cache instead of executed
	if v := checkSamples(ctx, []*sample{exec}, stubDirect, 1); v.Failed != 1 {
		t.Errorf("unexpected cache hit: failed=%d", v.Failed)
	}
}
