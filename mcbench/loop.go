package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/fleet"
	"repro/internal/serve"
)

// sample is one request and its reply, as the client saw it: a
// submission of the job, or a read of it.
type sample struct {
	Job job
	// Get marks a read of the finished job with GET /v1/jobs/{id}, as
	// `mcctl get` does; otherwise the sample is a submission.
	Get   bool
	Start time.Time
	End   time.Time

	Code      int
	Admission string
	State     serve.State
	Result    []byte // compacted result JSON
	JobError  string
	Shards    []fleet.ShardStatus // a coordinator's shard table; empty from a single node
	Err       error
}

func (s *sample) latency() time.Duration { return s.End.Sub(s.Start) }

// newHTTPClient is one closed-loop client's connection: a single kept
// alive connection to the daemon.
func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 2 * time.Minute,
		Transport: &http.Transport{
			MaxIdleConns:        1,
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			IdleConnTimeout:     time.Minute,
		},
	}
}

// submitWait posts a spec and blocks until the daemon replies with the
// job's terminal status (or refuses it).
func submitWait(ctx context.Context, hc *http.Client, base string, s *sample) {
	s.Start = time.Now()
	defer func() { s.End = time.Now() }()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs?wait=true", bytes.NewReader(s.Job.Body))
	if err != nil {
		s.Err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		s.Err = err
		return
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	s.Code = resp.StatusCode
	if err != nil {
		s.Err = err
		return
	}
	if resp.StatusCode != http.StatusOK {
		return
	}
	// A coordinator's reply is a single node's plus the shard table, so
	// one decoder reads both.
	var r fleet.SubmitResponse
	if err := json.Unmarshal(body, &r); err != nil {
		s.Err = fmt.Errorf("decode reply: %w", err)
		return
	}
	s.Admission, s.State, s.JobError, s.Shards = r.Admission, r.Status.State, r.Status.Error, r.Status.Shards
	s.Result, s.Err = compact(r.Status.Result)
}

// getResult reads a finished job back with GET /v1/jobs/{id} through
// the same client call as `mcctl get`.
func getResult(ctx context.Context, hc *http.Client, base string, s *sample) {
	s.Start = time.Now()
	defer func() { s.End = time.Now() }()
	st, err := (&serve.Client{BaseURL: base, HTTP: hc}).Job(ctx, s.Job.Digest)
	var ae *serve.APIError
	switch {
	case errors.As(err, &ae):
		s.Code = ae.Code
		return
	case err != nil:
		s.Err = err
		return
	}
	s.Code, s.State, s.JobError = http.StatusOK, st.State, st.Error
	s.Result, s.Err = compact(st.Result)
}

func compact(raw json.RawMessage) ([]byte, error) {
	if len(raw) == 0 {
		return nil, nil
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return nil, fmt.Errorf("compact result: %w", err)
	}
	return buf.Bytes(), nil
}

// loopResult is what one closed loop measured.
type loopResult struct {
	Samples []*sample
	Bursts  []burst // calibration bursts, in time order
	Start   time.Time
	Wall    time.Duration
}

func (l loopResult) timeline() timeline { return timeline{start: l.Start, bursts: l.Bursts} }

// loopSpec shapes one closed loop.
type loopSpec struct {
	// The loop stops taking jobs once dur has passed and at least
	// minExecuted jobs have been executed, or, when limit > 0, once it
	// has taken limit jobs.
	dur         time.Duration
	minExecuted int
	limit       int
	// after, if non-nil, runs after each executed job's reply and
	// before its read.
	after func(*sample)
}

// closedLoop runs one closed-loop client against base: it takes the
// generator's next job, submits it, waits for the reply, reads an
// executed job back once with GET /v1/jobs/{id}, as `mcctl get` does,
// and only then takes another. Jobs are taken in generator order, so
// the sequence is the same on every run of a seed.
//
// The read gives read_latency_p50_ms: the latency of a reply the
// daemon gives without running a job.
//
// Between jobs, once calEvery has passed since the last, the client
// runs a calibration burst (see calib.go); the loop starts with one.
func closedLoop(ctx context.Context, base string, gen generator, ls loopSpec) loopResult {
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	var samples []*sample
	executed := 0
	start := time.Now()
	bursts := []burst{calibrate()}
	deadline := start.Add(ls.dur)
	for taken := 0; ctx.Err() == nil; taken++ {
		if time.Since(bursts[len(bursts)-1].End) >= calEvery {
			bursts = append(bursts, calibrate())
		}
		if ls.limit > 0 && taken >= ls.limit {
			break
		}
		if ls.limit == 0 && time.Now().After(deadline) && executed >= ls.minExecuted {
			break
		}
		j := gen.next()
		s := &sample{Job: j}
		submitWait(ctx, hc, base, s)
		samples = append(samples, s)
		if s.Err != nil || s.Code != http.StatusOK {
			continue
		}
		executed++
		if ls.after != nil {
			ls.after(s)
		}
		r := &sample{Job: j, Get: true}
		getResult(ctx, hc, base, r)
		samples = append(samples, r)
	}
	return loopResult{Samples: samples, Bursts: bursts, Start: start, Wall: time.Since(start)}
}
