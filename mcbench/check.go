package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"

	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/verify"
)

// counts are the exact simulated quantities behind a set of executed
// jobs. The simulator is deterministic, so a job's counts are a pure
// function of its spec: two runs of one seed must agree job by job.
type counts struct {
	Slots      uint64 `json:"slots"`
	Patterns   uint64 `json:"patterns"`
	IMOs       uint64 `json:"imos"`
	Duplicates uint64 `json:"duplicates"`
}

func (c *counts) add(o counts) {
	c.Slots += o.Slots
	c.Patterns += o.Patterns
	c.IMOs += o.IMOs
	c.Duplicates += o.Duplicates
}

// directFunc runs a spec in the benchmark's own process, the reference
// every daemon result is compared with, and returns its canonical
// result bytes and exact counts.
type directFunc func(ctx context.Context, spec *serve.JobSpec) ([]byte, counts, error)

// direct runs sweeps through sim.RunSweepSpec and verify windows
// through serve.Execute: a single node's run of the spec.
func direct(ctx context.Context, spec *serve.JobSpec) ([]byte, counts, error) {
	if spec.Kind == serve.KindSweep {
		out, err := sim.RunSweepSpec(ctx, *spec.Sweep, 1, nil)
		if err != nil {
			return nil, counts{}, err
		}
		b, err := json.Marshal(out)
		return b, sweepCounts(out), err
	}
	b, err := serve.Execute(ctx, spec, serve.ExecOptions{Parallelism: 1})
	if err != nil {
		return nil, counts{}, err
	}
	c, err := resultCounts(spec.Kind, b)
	return b, c, err
}

func sweepCounts(out *sim.SweepOutcome) counts {
	c := counts{IMOs: uint64(out.Summary.IMOs), Duplicates: uint64(out.Summary.Duplicates)}
	for _, p := range out.Points {
		c.Slots += p.Slots
	}
	return c
}

// resultCounts reads the exact counts out of a daemon's result bytes.
// Verify results carry no slot count, so a verify job's counts have
// none.
func resultCounts(kind serve.Kind, result []byte) (counts, error) {
	switch kind {
	case serve.KindSweep:
		var out sim.SweepOutcome
		if err := json.Unmarshal(result, &out); err != nil {
			return counts{}, err
		}
		return sweepCounts(&out), nil
	case serve.KindVerify:
		var out verify.SpecOutcome
		if err := json.Unmarshal(result, &out); err != nil {
			return counts{}, err
		}
		return counts{Patterns: uint64(out.Checked)}, nil
	}
	return counts{}, fmt.Errorf("unexpected kind %q", kind)
}

// verdict is the outcome of checking every sample of a run.
type verdict struct {
	Attempted int
	Failed    int
	Refused   int
	Reasons   map[string]int
	// Executed are the samples that ran a job and passed every check,
	// with their counts; Reads counts the reads of finished jobs
	// answered correctly.
	Executed []*sample
	Counts   map[int]counts // by job index
	Reads    int
	// Problems are run-level failures (missing coverage, counts that
	// differ from an earlier run of the seed): they make the run
	// incorrect without belonging to one sample.
	Problems []string
}

func (v *verdict) fail(reason string) {
	v.Failed++
	v.Reasons[reason]++
}

// total sums the executed jobs' counts.
func (v *verdict) total() counts {
	var t counts
	for _, c := range v.Counts {
		t.add(c)
	}
	return t
}

// checkSamples classifies every sample and checks every output, outside
// any timed region: a refusal (429/503), a transport error, a failed
// job, a submission the daemon did not execute (the generators never
// repeat a spec) or a result that differs from the reference counts as
// failed. A read of a finished job must return the bytes of its
// execution among the samples. checkWorkers bounds the concurrent
// reference runs.
func checkSamples(ctx context.Context, samples []*sample, run directFunc, checkWorkers int) *verdict {
	v := &verdict{Reasons: map[string]int{}, Counts: map[int]counts{}}
	cold := map[serve.Digest][]byte{}
	var toRun []*sample
	for _, s := range samples {
		v.Attempted++
		switch {
		case s.Err != nil:
			v.fail("transport error")
			continue
		case s.Code == http.StatusTooManyRequests || s.Code == http.StatusServiceUnavailable:
			v.Refused++
			v.fail(fmt.Sprintf("refused (%d)", s.Code))
			continue
		case s.Code != http.StatusOK:
			v.fail(fmt.Sprintf("http %d", s.Code))
			continue
		case s.State != serve.StateDone:
			v.fail("job " + string(s.State))
			continue
		}
		if s.Get {
			continue // the bytes are compared once every executed result is known
		}
		if s.Admission != "enqueued" {
			v.fail("expected an execution, got " + s.Admission)
			continue
		}
		cold[s.Job.Digest] = s.Result
		toRun = append(toRun, s)
	}

	type ref struct {
		bytes []byte
		c     counts
		err   error
	}
	refs := make([]ref, len(toRun))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < max(1, checkWorkers); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				b, c, err := run(ctx, toRun[i].Job.Spec)
				refs[i] = ref{b, c, err}
			}
		}()
	}
	for i := range toRun {
		next <- i
	}
	close(next)
	wg.Wait()

	for i, s := range toRun {
		r := refs[i]
		switch {
		case r.err != nil:
			v.fail("reference run failed")
		case !bytes.Equal(s.Result, r.bytes):
			v.fail("result differs from the reference run")
		default:
			got, err := resultCounts(s.Job.Spec.Kind, s.Result)
			if err != nil {
				v.fail("undecodable result")
				continue
			}
			if got != r.c {
				v.fail("counts differ from the reference run")
				continue
			}
			v.Executed = append(v.Executed, s)
			v.Counts[s.Job.Index] = got
		}
	}
	for _, s := range samples {
		if !s.Get || s.Err != nil || s.Code != http.StatusOK || s.State != serve.StateDone {
			continue
		}
		want, ok := cold[s.Job.Digest]
		switch {
		case !ok:
			v.fail("read without an executed original")
		case !bytes.Equal(s.Result, want):
			v.fail("read differs from the executed result")
		default:
			v.Reads++
		}
	}
	return v
}

// checkCoverage requires the verify workload's executed windows to
// cover every pattern of the space, each window reporting every
// pattern it was given and no violation: MajorCAN_5 tolerates every
// pattern of up to three flips.
func checkCoverage(v *verdict, space int) {
	covered := make([]bool, space)
	for _, s := range v.Executed {
		var out verify.SpecOutcome
		if err := json.Unmarshal(s.Result, &out); err != nil {
			v.Problems = append(v.Problems, "undecodable verify result")
			return
		}
		spec := s.Job.Spec.Verify
		if !out.Consistent || len(out.Violations) > 0 || out.Checked != spec.PatternCount {
			v.Problems = append(v.Problems, fmt.Sprintf("verify window [%d,+%d): consistent=%v checked=%d",
				spec.PatternStart, spec.PatternCount, out.Consistent, out.Checked))
			continue
		}
		for p := spec.PatternStart; p < spec.PatternStart+spec.PatternCount && p < space; p++ {
			covered[p] = true
		}
	}
	missing := 0
	for _, c := range covered {
		if !c {
			missing++
		}
	}
	if missing > 0 {
		v.Problems = append(v.Problems, fmt.Sprintf("%d of %d patterns never checked", missing, space))
	}
}

// reasonList renders failure reasons in a stable order.
func (v *verdict) reasonList() []string {
	var out []string
	for r, n := range v.Reasons {
		out = append(out, fmt.Sprintf("%s x%d", r, n))
	}
	sort.Strings(out)
	return append(out, v.Problems...)
}
