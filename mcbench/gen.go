package main

import (
	"fmt"
	"math/rand"

	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/verify"
)

// job is one generated submission: the canonical spec bytes the daemon
// receives, plus its place in the workload's sequence.
type job struct {
	Index  int
	Spec   *serve.JobSpec
	Body   []byte
	Digest serve.Digest
}

// generator produces a workload's submissions in a fixed order: the
// same seed gives the same sequence, job by job.
type generator interface {
	next() job
}

// Sizes of the generated jobs. Each job is large enough that the layer
// its workload targets dominates its time (serve adds a few percent),
// and small enough that a run executes well over the rssJobs jobs after
// which peak_rss_mb is read, with a hundred or more latency samples.
const (
	sweepNodes   = 32 // the paper's bus size
	sweepFrames  = 100
	sweepSeeds   = 6
	sweepBerStar = 0.002

	verifyProtocol = "majorcan_5"
	verifyMaxFlips = 3
	verifyWindow   = 1000 // patterns per job
)

// dealt returns the class of item i of a named sequence dealt in
// blocks of sum(counts) items, counts[c] of class c in each block, in a
// seed-shuffled order.
func dealt(seed int64, name string, i int, counts []int) int {
	n := 0
	for _, c := range counts {
		n += c
	}
	slot := rngFor(seed, name, i/n).Perm(n)[i%n]
	for c, k := range counts {
		if slot < k {
			return c
		}
		slot -= k
	}
	panic("unreachable")
}

// stream derives an independent deterministic RNG seed for item i of a
// named stream of a workload seed (splitmix64 finalizer).
func stream(seed int64, name string, i int) int64 {
	h := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i)*0xBF58476D1CE4E5B9
	for _, c := range []byte(name) {
		h = (h ^ uint64(c)) * 0x100000001B3
	}
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return int64(h >> 1)
}

func rngFor(seed int64, name string, i int) *rand.Rand {
	return rand.New(rand.NewSource(stream(seed, name, i)))
}

// mustEncode normalizes a generated spec and renders the canonical
// bytes the daemon receives. The generators only build valid specs.
func mustEncode(spec *serve.JobSpec) job {
	spec.Normalize()
	body, digest, err := spec.Canonical()
	if err == nil {
		err = spec.Validate()
	}
	if err != nil {
		panic(fmt.Sprintf("mcbench: generated an invalid spec: %v", err))
	}
	return job{Spec: spec, Body: body, Digest: digest}
}

// sweepGen: 32-node EOF-only ber* sweeps, alternating CAN and
// MajorCAN_5, each on its own seed range so no two jobs share a digest.
type sweepGen struct {
	seed int64
	i    int
}

func (g *sweepGen) next() job {
	i := g.i
	g.i++
	protocols := [2]string{"can", "majorcan_5"}
	phase := int(stream(g.seed, "sweep-phase", 0) & 1)
	base := stream(g.seed, "sweep", i) & (1<<40 - 1)
	j := mustEncode(&serve.JobSpec{Kind: serve.KindSweep, Sweep: &sim.SweepSpec{
		Protocol:      protocols[(i+phase)%2],
		Nodes:         sweepNodes,
		Frames:        sweepFrames,
		BerStar:       sweepBerStar,
		Seed:          base,
		Seeds:         sweepSeeds,
		EOFOnly:       true,
		ResetCounters: true,
	}})
	j.Index = i
	return j
}

// verifyGen walks the exhaustive MajorCAN_5 k <= 3 pattern space in
// passes. Each pass cuts the space into windows of verifyWindow
// patterns at a seed-chosen offset and submits them in a seed-shuffled
// order, so one pass checks every pattern exactly once and no two
// passes share a window (a repeated window would be a cache hit).
type verifyGen struct {
	seed    int64
	space   int
	i       int
	pass    int
	pending [][2]int
	offsets map[int]bool
}

func newVerifyGen(seed int64) (*verifyGen, error) {
	space, err := verify.Spec{Protocol: verifyProtocol, MaxFlips: verifyMaxFlips}.PatternSpace()
	if err != nil {
		return nil, err
	}
	return &verifyGen{seed: seed, space: space, offsets: map[int]bool{}}, nil
}

// passWindows returns pass p's windows in submission order.
func (g *verifyGen) passWindows(p int) [][2]int {
	rng := rngFor(g.seed, "verify-pass", p)
	off := 1 + rng.Intn(verifyWindow-1)
	for g.offsets[off] {
		off = 1 + (off % (verifyWindow - 1))
	}
	g.offsets[off] = true
	wins := [][2]int{{0, off}}
	for a := off; a < g.space; a += verifyWindow {
		wins = append(wins, [2]int{a, min(verifyWindow, g.space-a)})
	}
	rng.Shuffle(len(wins), func(a, b int) { wins[a], wins[b] = wins[b], wins[a] })
	return wins
}

// maxPassLen is the most windows a pass can have: executed in order,
// that many jobs complete the first pass.
func (g *verifyGen) maxPassLen() int {
	return 1 + (g.space-1+verifyWindow-1)/verifyWindow
}

func (g *verifyGen) next() job {
	if len(g.pending) == 0 {
		g.pending = g.passWindows(g.pass)
		g.pass++
	}
	w := g.pending[0]
	g.pending = g.pending[1:]
	j := mustEncode(&serve.JobSpec{Kind: serve.KindVerify, Verify: &verify.Spec{
		Protocol:     verifyProtocol,
		MaxFlips:     verifyMaxFlips,
		PatternStart: w[0],
		PatternCount: w[1],
	}})
	j.Index = g.i
	g.i++
	return j
}
