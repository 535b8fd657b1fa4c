package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"repro/internal/serve"
)

// span is one interval of the traced run on the benchmark's clock, in
// microseconds. Parent is an index into the same slice, or -1 for a
// root. A child lies inside its parent.
type span struct {
	Name   string
	Layer  string
	Start  float64
	End    float64
	Parent int
	// Job is set on a job's attempt spans, the spans splitAttempts
	// divides among the layers below.
	Job serve.Digest
}

// Layers the traced run attributes time to. A job's attempt is credited
// to the layer that runs its kind, less the shares splitAttempts gives
// to the layers below it.
const (
	layerHTTP     = "http"     // client round trip outside the daemon's job window
	layerServe    = "serve"    // admission, queue, journal, cache, spool and event capture
	layerSim      = "sim"      // sweep attempts; cluster builds under verify
	layerFastpath = "fastpath" // bus/fastpath: the packed core and fast-forward under sweeps
	layerBus      = "bus"      // the bus reference loop under verify's scripted flips
	layerVerify   = "verify"   // verify attempts
	layerBench    = "bench"    // the benchmark's own trace fetches and calibration bursts
)

var allLayers = []string{layerHTTP, layerServe, layerSim, layerFastpath, layerBus, layerVerify, layerBench}

func kindLayer(k serve.Kind) string {
	if k == serve.KindSweep {
		return layerSim
	}
	return layerVerify
}

// splitAttempts divides each job's attempt spans among the layers below
// the one that runs the job's kind: shares holds, per job, the share of
// an attempt each lower layer takes. The shares become child spans laid
// out from the attempt's start; what they leave stays with the
// attempt's own layer. It returns the spans with the children appended.
func splitAttempts(spans []span, shares map[serve.Digest]map[string]float64) []span {
	n := len(spans)
	for i := 0; i < n; i++ {
		sh, ok := shares[spans[i].Job]
		if spans[i].Job == "" || !ok {
			continue
		}
		at, length := spans[i].Start, spans[i].End-spans[i].Start
		for _, l := range allLayers {
			if sh[l] <= 0 {
				continue
			}
			dur := min(length*sh[l], spans[i].End-at)
			spans = append(spans, span{Name: l, Layer: l, Start: at, End: at + dur, Parent: i})
			at += dur
		}
	}
	return spans
}

// attribution is the split of a traced wall interval by layer. Every
// instant covered by some span is credited to the spans active at that
// instant that have no active child, shared equally among them, so the
// self times of all layers plus the unattributed remainder add up to
// the wall time exactly, overlapping spans included.
type attribution struct {
	Wall         float64
	Self         map[string]float64
	Unattributed float64
}

func attribute(spans []span, wallStart, wallEnd float64) attribution {
	a := attribution{Wall: wallEnd - wallStart, Self: map[string]float64{}}
	type edge struct {
		t     float64
		open  bool
		index int
	}
	edges := make([]edge, 0, 2*len(spans))
	for i, s := range spans {
		start, end := max(s.Start, wallStart), min(s.End, wallEnd)
		if end > start {
			edges = append(edges, edge{start, true, i}, edge{end, false, i})
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].t != edges[j].t {
			return edges[i].t < edges[j].t
		}
		return !edges[i].open && edges[j].open // close before open at a shared instant
	})
	active := map[int]bool{}
	activeKids := map[int]int{}
	covered := 0.0
	prev := wallStart
	for _, e := range edges {
		if dt := e.t - prev; dt > 0 && len(active) > 0 {
			leaves := 0
			for i := range active {
				if activeKids[i] == 0 {
					leaves++
				}
			}
			for i := range active {
				if activeKids[i] == 0 {
					a.Self[spans[i].Layer] += dt / float64(leaves)
				}
			}
			covered += dt
		}
		prev = e.t
		p := spans[e.index].Parent
		if e.open {
			active[e.index] = true
			if p >= 0 {
				activeKids[p]++
			}
		} else {
			delete(active, e.index)
			if p >= 0 {
				activeKids[p]--
			}
		}
	}
	a.Unattributed = a.Wall - covered
	return a
}

// traceEvent is the part of a Chrome trace-event entry the benchmark
// reads from GET /v1/jobs/{id}/trace.
type traceEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Pid  int64   `json:"pid"`
}

// jobPhases are the service-side spans of one finished job: the root
// job window and its phases, in microseconds from submission. Only the
// service process (pid 0) is read; protocol tracks are not phases.
type jobPhases struct {
	Root   traceEvent
	Phases []traceEvent
}

func parseJobTrace(data []byte) (jobPhases, error) {
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return jobPhases{}, err
	}
	var jp jobPhases
	found := false
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" || e.Pid != 0 {
			continue
		}
		if !found && (e.Name == "job" || e.Name == "fleet job") { // a coordinator's root is "fleet job"
			jp.Root, found = e, true
			continue
		}
		jp.Phases = append(jp.Phases, e)
	}
	if !found {
		return jobPhases{}, fmt.Errorf("trace has no job span")
	}
	return jp, nil
}

// jobSpans places a job's service-side phases inside the client's
// request span, each a child of the job span. The daemon's clock is not
// the client's: the job window is centred in the request, splitting the
// HTTP overhead evenly between the request and the reply, and clipped
// to it. The attempt is credited to the layer that runs the job's kind,
// every other phase to serve.
func jobSpans(s *sample, jp jobPhases, origin time.Time) []span {
	cStart, cEnd := micros(s.Start, origin), micros(s.End, origin)
	out := []span{{Name: "request", Layer: layerHTTP, Start: cStart, End: cEnd, Parent: -1}}
	off := cStart + max(0, (cEnd-cStart)-jp.Root.Dur)/2
	clip := func(a, b float64, in span) (float64, float64) {
		return min(max(a, in.Start), in.End), min(max(b, in.Start), in.End)
	}
	rs, re := clip(off, off+jp.Root.Dur, out[0])
	out = append(out, span{Name: jp.Root.Name, Layer: layerServe, Start: rs, End: re, Parent: 0})
	for _, p := range jp.Phases {
		if p.Dur <= 0 {
			continue
		}
		ps, pe := clip(off+p.Ts, off+p.Ts+p.Dur, out[1])
		sp := span{Name: p.Name, Layer: layerServe, Start: ps, End: pe, Parent: 1}
		if p.Name == "attempt" {
			sp.Layer, sp.Job = kindLayer(s.Job.Spec.Kind), s.Job.Digest
		}
		out = append(out, sp)
	}
	return out
}

// micros is t in microseconds after origin.
func micros(t, origin time.Time) float64 {
	return float64(t.Sub(origin).Nanoseconds()) / 1e3
}
