package serve

import (
	"errors"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/span"
)

// ErrJobRunning reports a trace request for a job that has not reached
// a terminal state; the timeline is only complete at completion.
var ErrJobRunning = errors.New("serve: job not finished; trace is available at completion")

// BuildTrace renders a finished job's end-to-end timeline as a Perfetto
// trace: a service track group with the root job span, the queue wait,
// the execution attempts and the durability phases (journal appends,
// checkpoint saves, the cache put), plus one protocol track group per
// attempt with the per-station spans synthesised from the job's
// captured event stream. A job its Runner split across workers also
// gets one service track per shard: the dispatch window with the
// worker-reported queue and run sub-spans inside it, so a slow worker
// shows as a long bar beside its peers. Timestamps are microseconds
// relative to the job's submission; an attempt's bit slots are scaled
// to fit its wall duration, so the protocol timeline nests under its
// attempt span.
func BuildTrace(j *Job) (*span.Trace, error) {
	j.mu.Lock()
	state := j.state
	phases := append([]jobPhase(nil), j.phases...)
	submitted, started, finished := j.submitted, j.started, j.finished
	attempts := j.attempts
	cached := j.cached
	recovered := j.recovered
	errMsg := j.errMsg
	j.mu.Unlock()
	if state != StateDone && state != StateFailed {
		return nil, ErrJobRunning
	}
	shards := j.shards.runs()

	t0 := submitted
	if t0.IsZero() {
		// Cached and resynthesized records carry no queue timestamps;
		// anchor the (empty) timeline at whatever timestamps exist.
		t0 = started
	}
	us := func(t time.Time) float64 {
		if t.IsZero() || t.Before(t0) {
			return 0
		}
		return float64(t.Sub(t0).Microseconds())
	}

	tr := &span.Trace{}
	tr.Process(0, "service", 0)
	tr.Thread(0, 0, "job")
	tr.Thread(0, 1, "durability")

	rootArgs := map[string]any{
		"id":       j.digest.Short(),
		"kind":     string(j.spec.Kind),
		"state":    string(state),
		"attempts": attempts,
	}
	if cached {
		rootArgs["cached"] = true
	}
	if recovered {
		rootArgs["recovered"] = true
	}
	if errMsg != "" {
		rootArgs["error"] = errMsg
	}
	if len(shards) > 0 {
		rootArgs["shards"] = len(shards)
	}
	var capturedEvents []obs.Event
	if j.capture != nil {
		capturedEvents = j.capture.Events()
		rootArgs["events_captured"] = len(capturedEvents)
		if d := j.capture.Dropped(); d > 0 {
			rootArgs["events_beyond_capture"] = d
		}
	}
	if j.ring != nil {
		if d := j.ring.Dropped(); d > 0 {
			rootArgs["stream_events_dropped"] = d
		}
	}
	// The root span spans submission to completion — the same timestamps
	// JobStatus derives queuedMs and runMs from, so the trace and the
	// stats agree exactly.
	tr.Add(span.Span{
		Name: "job", Cat: "service", Pid: 0, Tid: 0,
		Start: 0, Dur: us(finished), Args: rootArgs,
	})
	if !started.IsZero() && !submitted.IsZero() {
		tr.Add(span.Span{
			Name: "queue wait", Cat: "service", Pid: 0, Tid: 0,
			Start: 0, Dur: us(started),
			Args: map[string]any{"shard": j.shard},
		})
	}

	// Attempt wall windows, for placing and scaling protocol segments.
	attemptWindow := make(map[int]jobPhase)
	for _, p := range phases {
		switch {
		case p.name == "attempt":
			attemptWindow[p.attempt] = p
			tr.Add(span.Span{
				Name: "attempt", Cat: "service", Pid: 0, Tid: 0,
				Start: us(p.start), Dur: us(p.end) - us(p.start),
				Args: map[string]any{"attempt": p.attempt},
			})
		default:
			tr.Add(span.Span{
				Name: p.name, Cat: "durability", Pid: 0, Tid: 1,
				Start: us(p.start), Dur: us(p.end) - us(p.start),
			})
		}
	}

	// Protocol timelines: the captured stream, split at attempt-retry
	// markers into one segment per execution attempt, each scaled into
	// its attempt's wall window.
	segments := [][]obs.Event{nil}
	for _, e := range capturedEvents {
		if e.Kind == obs.KindAttemptRetry {
			segments = append(segments, nil)
			continue
		}
		segments[len(segments)-1] = append(segments[len(segments)-1], e)
	}
	for i, seg := range segments {
		if len(seg) == 0 {
			continue
		}
		attempt := i + 1
		offset := us(started)
		slotMicros := 1.0
		if w, ok := attemptWindow[attempt]; ok {
			offset = us(w.start)
			if extent := span.Extent(seg); extent > 0 {
				if wall := us(w.end) - us(w.start); wall > 0 {
					slotMicros = wall / float64(extent)
				}
			}
		}
		label := "protocol"
		if len(segments) > 1 {
			label = "protocol (attempt " + itoa(attempt) + ")"
		}
		span.AddProtocol(tr, seg, span.ProtocolOptions{
			Pid:        int64(attempt),
			Label:      label,
			SortIndex:  attempt,
			Offset:     offset,
			SlotMicros: slotMicros,
		})
	}

	for i, sr := range shards {
		tid := int64(2 + i)
		tr.Thread(0, tid, "shard "+itoa(sr.Index))
		args := map[string]any{
			"shard":    sr.Index,
			"digest":   sr.Digest.Short(),
			"state":    string(sr.State),
			"attempts": sr.Attempts,
		}
		if sr.Worker != "" {
			// The host:port carries all the identity a timeline needs.
			_, host, ok := strings.Cut(sr.Worker, "://")
			if !ok {
				host = sr.Worker
			}
			args["worker"] = host
		}
		if sr.Cached {
			args["cached"] = true
		}
		if sr.Error != "" {
			args["error"] = sr.Error
		}
		if sr.Cached || sr.start.IsZero() {
			// No dispatch window: the shard was adopted from the job's
			// checkpoint, or never dispatched because the job failed first.
			// A zero-width marker at the job start records which.
			name := "dispatch (not run)"
			if sr.Cached {
				name = "dispatch (adopted)"
			}
			tr.Add(span.Span{
				Name: name, Cat: "fleet", Pid: 0, Tid: tid,
				Start: us(started), Dur: 0, Args: args,
			})
			continue
		}
		dispatchStart, dispatchEnd := us(sr.start), us(sr.end)
		tr.Add(span.Span{
			Name: "dispatch", Cat: "fleet", Pid: 0, Tid: tid,
			Start: dispatchStart, Dur: dispatchEnd - dispatchStart, Args: args,
		})
		// Worker-side phases, anchored to the end of the dispatch window:
		// the worker finished running the shard right before the blocking
		// submit returned, so [end-run, end] approximates execution and the
		// queue wait sits immediately before it. Millisecond-grain numbers
		// from the worker's JobStatus, placed on this clock.
		runUs := float64(sr.RunMs) * 1000
		queuedUs := float64(sr.QueuedMs) * 1000
		if window := dispatchEnd - dispatchStart; runUs+queuedUs > window {
			// A reassigned shard's dispatch window can be shorter than the
			// successful attempt's worker-side numbers suggest; clip rather
			// than overhang the track.
			scale := window / (runUs + queuedUs)
			runUs *= scale
			queuedUs *= scale
		}
		if runUs > 0 {
			tr.Add(span.Span{
				Name: "worker run", Cat: "worker", Pid: 0, Tid: tid,
				Start: dispatchEnd - runUs, Dur: runUs,
				Args: map[string]any{"runMs": sr.RunMs},
			})
		}
		if queuedUs > 0 {
			tr.Add(span.Span{
				Name: "worker queue", Cat: "worker", Pid: 0, Tid: tid,
				Start: dispatchEnd - runUs - queuedUs, Dur: queuedUs,
				Args: map[string]any{"queuedMs": sr.QueuedMs},
			})
		}
	}
	return tr, nil
}

// itoa avoids pulling fmt into the hot path of trace assembly for a
// two-digit attempt number.
func itoa(n int) string {
	if n < 10 {
		return string([]byte{byte('0' + n)})
	}
	return itoa(n/10) + string([]byte{byte('0' + n%10)})
}
