package serve

import (
	"testing"
	"time"
)

// TestIdleShardTakesCollidingJob pins that jobs whose digests share a home
// shard still run at once while another shard is idle: routing by hash
// alone would queue the second behind the first.
func TestIdleShardTakesCollidingJob(t *testing.T) {
	const shards = 4
	r := &countingRunner{block: make(chan struct{}), started: make(chan struct{}, shards)}
	s := newTestScheduler(t, Config{Shards: shards, Runner: r.run})

	// Pick `shards` specs at least two of which share a home shard.
	var specs []*JobSpec
	homes := make(map[int]int)
	collided := false
	for seed := int64(0); len(specs) < shards; seed++ {
		spec := sweepSpec(t, seed)
		_, d, err := spec.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		h := s.shardOf(d)
		if homes[h] > 0 && collided {
			continue // one collision is enough; keep the rest apart
		}
		collided = collided || homes[h] > 0
		homes[h]++
		specs = append(specs, spec)
	}
	if !collided {
		t.Fatal("no two specs share a home shard")
	}

	var jobs []*Job
	for _, spec := range specs {
		j, adm, err := s.Submit(spec)
		if err != nil || adm != AdmissionNew {
			t.Fatalf("submit: adm=%v err=%v", adm, err)
		}
		jobs = append(jobs, j)
	}
	lanes := make(map[int]bool)
	for i := 0; i < shards; i++ {
		select {
		case <-r.started:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d jobs started with %d shards", i, shards, shards)
		}
	}
	for _, j := range jobs {
		lanes[j.Status().Shard] = true
	}
	if len(lanes) != shards {
		t.Fatalf("jobs ran on %d distinct shards, want %d", len(lanes), shards)
	}
	close(r.block)
	for _, j := range jobs {
		<-j.Done()
	}

	// Once they are done every shard is idle again, so the next job runs
	// on its home shard.
	spec := sweepSpec(t, 1000)
	_, d, err := spec.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	j, _, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if got, want := j.Status().Shard, s.shardOf(d); got != want {
		t.Fatalf("job on an idle scheduler ran on shard %d, want its home %d", got, want)
	}
}
