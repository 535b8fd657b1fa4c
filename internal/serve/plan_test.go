package serve

import (
	"encoding/json"
	"testing"
)

func decodeSpec(t *testing.T, raw string) *JobSpec {
	t.Helper()
	spec, err := DecodeSpec([]byte(raw))
	if err != nil {
		t.Fatalf("decode spec: %v", err)
	}
	return spec
}

func TestRangesPartitionExactly(t *testing.T) {
	for _, tc := range []struct{ n, target int }{
		{10, 3}, {10, 10}, {10, 17}, {1, 4}, {7, 1}, {100, 16},
	} {
		rs := ranges(tc.n, tc.target)
		if len(rs) > tc.target {
			t.Fatalf("ranges(%d,%d): %d ranges exceed target", tc.n, tc.target, len(rs))
		}
		next := 0
		for _, r := range rs {
			if r[0] != next {
				t.Fatalf("ranges(%d,%d): range starts at %d, want %d (gap or overlap)", tc.n, tc.target, r[0], next)
			}
			if r[1] <= 0 {
				t.Fatalf("ranges(%d,%d): empty range at offset %d", tc.n, tc.target, r[0])
			}
			next = r[0] + r[1]
		}
		if next != tc.n {
			t.Fatalf("ranges(%d,%d): covered [0,%d), want [0,%d)", tc.n, tc.target, next, tc.n)
		}
	}
	// Zero work still yields one (empty) range: every job gets a shard.
	if rs := ranges(0, 4); len(rs) != 1 || rs[0] != [2]int{0, 0} {
		t.Fatalf("ranges(0,4) = %v, want single empty range", rs)
	}
}

func TestPlanIsDeterministic(t *testing.T) {
	raw := `{"sweep":{"protocol":"majorcan_5","nodes":5,"frames":50,"berStar":0.02,"seed":7,"seeds":10,"eofOnly":true,"resetCounters":true}}`
	a, err := NewPlan(decodeSpec(t, raw), 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPlan(decodeSpec(t, raw), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Shards) != 3 || len(b.Shards) != len(a.Shards) {
		t.Fatalf("plan shard counts %d/%d, want 3", len(a.Shards), len(b.Shards))
	}
	if a.Digest != b.Digest {
		t.Fatalf("logical digests differ: %s vs %s", a.Digest, b.Digest)
	}
	for i := range a.Shards {
		if a.Shards[i].Digest != b.Shards[i].Digest {
			t.Fatalf("shard %d digest differs across replans", i)
		}
	}
	// Seed ranges partition [7, 17).
	seen := 0
	next := int64(7)
	for i, sh := range a.Shards {
		if sh.Spec.Sweep.Seed != next {
			t.Fatalf("shard %d starts at seed %d, want %d", i, sh.Spec.Sweep.Seed, next)
		}
		next += int64(sh.Spec.Sweep.Seeds)
		seen += sh.Spec.Sweep.Seeds
	}
	if seen != 10 {
		t.Fatalf("shards cover %d seeds, want 10", seen)
	}
}

func TestPlanSingleShardKinds(t *testing.T) {
	for name, tc := range map[string]struct {
		raw    string
		target int
	}{
		"stop-at-first campaign":        {`{"campaign":{"protocol":"majorcan","nodes":4,"frames":1,"trials":10,"maxFaults":2,"seed":3,"stopAtFirst":true}}`, 4},
		"single-seed sweep":             {`{"sweep":{"protocol":"majorcan_5","nodes":5,"frames":50,"berStar":0.02,"seed":7,"eofOnly":true,"resetCounters":true}}`, 4},
		"whole-space verify, one shard": {`{"verify":{"protocol":"majorcan_5","maxFlips":1}}`, 1},
	} {
		spec := decodeSpec(t, tc.raw)
		p, err := NewPlan(spec, tc.target)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(p.Shards) != 1 {
			t.Fatalf("%s: %d shards, want 1", name, len(p.Shards))
		}
		if p.Shards[0].Digest != p.Digest {
			t.Fatalf("%s: single shard digest %s != logical %s", name, p.Shards[0].Digest, p.Digest)
		}
	}
}

func TestPlanCampaignTrialRanges(t *testing.T) {
	raw := `{"campaign":{"protocol":"majorcan","nodes":4,"frames":1,"trials":10,"maxFaults":2,"seed":3}}`
	p, err := NewPlan(decodeSpec(t, raw), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Shards) != 4 {
		t.Fatalf("%d shards, want 4", len(p.Shards))
	}
	next, total := 0, 0
	for i, sh := range p.Shards {
		cs := sh.Spec.Campaign
		if cs.TrialOffset != next {
			t.Fatalf("shard %d trial offset %d, want %d", i, cs.TrialOffset, next)
		}
		if cs.Seed != 3 {
			t.Fatalf("shard %d seed %d changed; trial RNG must derive from the global index", i, cs.Seed)
		}
		next += cs.Trials
		total += cs.Trials
	}
	if total != 10 {
		t.Fatalf("shards cover %d trials, want 10", total)
	}
}

func TestPlanVerifyWindows(t *testing.T) {
	raw := `{"verify":{"protocol":"majorcan","stations":3,"maxFlips":2,"positions":3}}`
	spec := decodeSpec(t, raw)
	space, err := spec.Verify.PatternSpace()
	if err != nil {
		t.Fatal(err)
	}
	if space < 4 {
		t.Fatalf("pattern space %d too small to split", space)
	}
	p, err := NewPlan(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Shards) != 3 {
		t.Fatalf("%d shards, want 3", len(p.Shards))
	}
	next, covered := 0, 0
	for i, sh := range p.Shards {
		vs := sh.Spec.Verify
		if vs.PatternStart != next {
			t.Fatalf("shard %d starts at pattern %d, want %d", i, vs.PatternStart, next)
		}
		next += vs.PatternCount
		covered += vs.PatternCount
	}
	if covered != space {
		t.Fatalf("shards cover %d patterns, want %d", covered, space)
	}

	// A logical spec that already carries a window splits into
	// sub-windows of it, never beyond its end.
	windowed := decodeSpec(t, `{"verify":{"protocol":"majorcan","stations":3,"maxFlips":2,"positions":3,"patternStart":2,"patternCount":5}}`)
	wp, err := NewPlan(windowed, 2)
	if err != nil {
		t.Fatal(err)
	}
	covered = 0
	next = 2
	for i, sh := range wp.Shards {
		vs := sh.Spec.Verify
		if vs.PatternStart != next {
			t.Fatalf("windowed shard %d starts at %d, want %d", i, vs.PatternStart, next)
		}
		next += vs.PatternCount
		covered += vs.PatternCount
	}
	if covered != 5 {
		t.Fatalf("windowed shards cover %d patterns, want 5", covered)
	}
}

func TestMergeArityChecks(t *testing.T) {
	raw := `{"sweep":{"protocol":"majorcan_5","nodes":5,"frames":50,"berStar":0.02,"seed":7,"seeds":4,"eofOnly":true,"resetCounters":true}}`
	p, err := NewPlan(decodeSpec(t, raw), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Merge([]json.RawMessage{[]byte("{}")}); err == nil {
		t.Fatal("merge accepted wrong shard-result count")
	}
	if _, err := p.Merge([]json.RawMessage{[]byte("{}"), nil}); err == nil {
		t.Fatal("merge accepted a missing shard result")
	}
}
