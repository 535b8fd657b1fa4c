package main

import (
	"bytes"
	"fmt"
	"testing"
)

func newGens(t *testing.T, seed int64) map[string]generator {
	t.Helper()
	gens := map[string]generator{}
	for name, w := range workloads {
		g, err := w.newGen(seed)
		if err != nil {
			t.Fatal(err)
		}
		gens[name] = g
	}
	return gens
}

// The same seed must give the same jobs, job by job, and another seed
// other jobs.
func TestGeneratorDeterministicPerSeed(t *testing.T) {
	const n = 300
	a, b, c := newGens(t, 7), newGens(t, 7), newGens(t, 8)
	for name := range workloads {
		same, differ := 0, 0
		for i := 0; i < n; i++ {
			ja, jb, jc := a[name].next(), b[name].next(), c[name].next()
			if ja.Index != jb.Index || !bytes.Equal(ja.Body, jb.Body) {
				t.Fatalf("%s job %d differs between two generators of seed 7", name, i)
			}
			if bytes.Equal(ja.Body, jc.Body) {
				same++
			} else {
				differ++
			}
		}
		if differ == 0 {
			t.Errorf("%s: seeds 7 and 8 generate the same %d jobs", name, n)
		}
	}
}

// A job never repeats a digest: the daemon must execute every one.
func TestGeneratorJobsAreNew(t *testing.T) {
	for name, g := range newGens(t, 3) {
		seen := map[string]bool{}
		for i := 0; i < 2000; i++ {
			j := g.next()
			if seen[string(j.Digest)] {
				t.Fatalf("%s job %d repeats digest %s", name, i, j.Digest.Short())
			}
			seen[string(j.Digest)] = true
		}
	}
}

// Each verify pass covers the pattern space exactly once.
func TestVerifyPassCoversSpace(t *testing.T) {
	g, err := newVerifyGen(5)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 3; pass++ {
		hits := make([]int, g.space)
		wins := g.passWindows(pass)
		if len(wins) > g.maxPassLen() {
			t.Fatalf("pass %d has %d windows, more than maxPassLen %d", pass, len(wins), g.maxPassLen())
		}
		for _, w := range wins {
			for p := w[0]; p < w[0]+w[1]; p++ {
				hits[p]++
			}
		}
		for p, h := range hits {
			if h != 1 {
				t.Fatalf("pass %d checks pattern %d %d times", pass, p, h)
			}
		}
	}
}

// Every block of a deal holds exactly the counts it was given, in a
// seed-dependent order.
func TestDealtGivesExactCountsPerBlock(t *testing.T) {
	counts := []int{17, 7, 4}
	orders := map[string]bool{}
	for _, seed := range []int64{1, 2, 3} {
		got := make([]int, len(counts))
		order := ""
		for i := 0; i < 28*10; i++ {
			c := dealt(seed, "test", i, counts)
			got[c]++
			if i < 28 {
				order += fmt.Sprint(c)
			}
		}
		for c, n := range got {
			if n != 10*counts[c] {
				t.Errorf("seed %d: class %d dealt %d times in 10 blocks, want %d", seed, c, n, 10*counts[c])
			}
		}
		orders[order] = true
	}
	if len(orders) == 1 {
		t.Error("three seeds deal their first block in the same order")
	}
}
