package main

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/serve"
)

func checkAddsUp(t *testing.T, spans []span, start, end float64) attribution {
	t.Helper()
	a := attribute(spans, start, end)
	total := a.Unattributed
	for _, v := range a.Self {
		total += v
	}
	if math.Abs(total-a.Wall) > 1e-6*max(1, a.Wall) {
		t.Fatalf("self times %v + unattributed %g = %g, wall %g", a.Self, a.Unattributed, total, a.Wall)
	}
	return a
}

func TestSelfTimesAddUpToWall(t *testing.T) {
	// Two concurrent requests, one with a nested job and phases, a gap,
	// and a fetch span poking out of the wall window.
	spans := []span{
		{Name: "request", Layer: layerHTTP, Start: 0, End: 100, Parent: -1},
		{Name: "job", Layer: layerServe, Start: 10, End: 90, Parent: 0},
		{Name: "attempt", Layer: layerSim, Start: 20, End: 80, Parent: 1},
		{Name: "request", Layer: layerHTTP, Start: 50, End: 120, Parent: -1},
		{Name: "trace fetch", Layer: layerBench, Start: 150, End: 250, Parent: -1},
	}
	a := checkAddsUp(t, spans, 0, 200)
	// [0,10) http alone; [10,20) serve; [20,50) sim; [50,80) sim and the
	// second request share; [80,90) serve and it share; [90,100) both
	// requests; [100,120) second request; [120,150) nothing; [150,200)
	// the fetch.
	want := map[string]float64{layerHTTP: 10 + 15 + 5 + 10 + 20, layerServe: 10 + 5, layerSim: 30 + 15, layerBench: 50}
	for l, w := range want {
		if math.Abs(a.Self[l]-w) > 1e-9 {
			t.Errorf("self[%s] = %g, want %g", l, a.Self[l], w)
		}
	}
	if a.Unattributed != 30 {
		t.Errorf("unattributed = %g, want 30", a.Unattributed)
	}

	// Random forests of nested spans: the identity holds whatever the
	// overlap.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		var ss []span
		for r := 0; r < 1+rng.Intn(6); r++ {
			s := float64(rng.Intn(1000))
			ss = append(ss, span{Layer: layerHTTP, Start: s, End: s + float64(1+rng.Intn(300)), Parent: -1})
			for c := rng.Intn(4); c > 0; c-- {
				p := rng.Intn(len(ss))
				ps, pe := ss[p].Start, ss[p].End
				cs := ps + rng.Float64()*(pe-ps)
				ss = append(ss, span{Layer: allLayers[rng.Intn(len(allLayers))], Start: cs, End: cs + rng.Float64()*(pe-cs), Parent: p})
			}
		}
		checkAddsUp(t, ss, float64(rng.Intn(200)), 1000+float64(rng.Intn(400)))
	}
}

// A job's phases lie inside its job window, centred in the client's
// request, and only the attempt is credited to the kind's layer.
func TestJobSpansNestPhases(t *testing.T) {
	origin := time.Unix(0, 0)
	s := &sample{Job: job{Digest: "d", Spec: &serve.JobSpec{Kind: serve.KindVerify}},
		Start: origin.Add(1000 * time.Microsecond), End: origin.Add(2000 * time.Microsecond)}
	jp := jobPhases{
		Root: traceEvent{Name: "job", Ph: "X", Ts: 0, Dur: 900},
		Phases: []traceEvent{
			{Name: "queue wait", Ts: 0, Dur: 50},
			{Name: "journal accept", Ts: 0, Dur: 20},
			{Name: "attempt", Ts: 50, Dur: 800},
			{Name: "cache put", Ts: 850, Dur: 50},
			{Name: "journal done", Ts: 900, Dur: 0},
		},
	}
	got := jobSpans(s, jp, origin)
	if len(got) != 6 {
		t.Fatalf("got %d spans, want request, job and 4 phases", len(got))
	}
	if got[1].Start != 1050 || got[1].End != 1950 {
		t.Errorf("job window [%g,%g] not centred in the request [1000,2000]", got[1].Start, got[1].End)
	}
	for _, sp := range got[2:] {
		if sp.Parent != 1 || sp.Start < got[1].Start || sp.End > got[1].End {
			t.Errorf("%s [%g,%g] not inside the job window", sp.Name, sp.Start, sp.End)
		}
		attempt := sp.Name == "attempt"
		if attempt != (sp.Layer == layerVerify) || attempt != (sp.Job == "d") {
			t.Errorf("%s in layer %s with job %q", sp.Name, sp.Layer, sp.Job)
		}
	}
}

// Splitting attempts among the layers below keeps every child inside
// its attempt, gives each layer its share of every attempt of the job,
// and leaves the identity self + unattributed = wall intact.
func TestSplitAttemptsNestsAndAddsUp(t *testing.T) {
	spans := []span{
		{Name: "request", Layer: layerHTTP, Start: 0, End: 100, Parent: -1},
		{Name: "job", Layer: layerServe, Start: 10, End: 90, Parent: 0},
		{Name: "attempt", Layer: layerVerify, Start: 20, End: 80, Parent: 1, Job: "a"},
		{Name: "request", Layer: layerHTTP, Start: 100, End: 200, Parent: -1},
		{Name: "job", Layer: layerServe, Start: 100, End: 200, Parent: 3},
		{Name: "attempt", Layer: layerSim, Start: 110, End: 190, Parent: 4, Job: "b"},
	}
	shares := map[serve.Digest]map[string]float64{
		"a": {layerServe: 0.1, layerSim: 0.25, layerBus: 0.5},
		"b": {layerFastpath: 1},
	}
	got := splitAttempts(append([]span(nil), spans...), shares)
	if len(got) != len(spans)+4 {
		t.Fatalf("got %d spans, want %d", len(got), len(spans)+4)
	}
	for _, sp := range got[len(spans):] {
		p := got[sp.Parent]
		if sp.Start < p.Start-1e-9 || sp.End > p.End+1e-9 {
			t.Errorf("%s [%g,%g] outside %s [%g,%g]", sp.Name, sp.Start, sp.End, p.Name, p.Start, p.End)
		}
	}
	a := checkAddsUp(t, got, 0, 200)
	want := map[string]float64{
		layerHTTP: 20, layerServe: 10 + 10 + 6 + 20, layerSim: 15, layerBus: 30,
		layerVerify: 60 - 6 - 15 - 30, layerFastpath: 80,
	}
	for l, w := range want {
		if math.Abs(a.Self[l]-w) > 1e-9 {
			t.Errorf("self[%s] = %g, want %g", l, a.Self[l], w)
		}
	}
}
