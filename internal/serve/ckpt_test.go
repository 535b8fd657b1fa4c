package serve

import (
	"encoding/json"
	"syscall"
	"testing"

	"repro/internal/serve/fsio"
)

// TestCheckpointStoreDegradeLatch pins the store's give-up policy, the
// only one between a job's checkpoint saves and a failing disk: after
// ckptDegradeAfter consecutive write failures, Save stops touching the
// filesystem, Degraded reports it and OnDegrade fires exactly once.
func TestCheckpointStoreDegradeLatch(t *testing.T) {
	ffs := fsio.NewFaulty(nil)
	cs, err := NewCheckpointStore(t.TempDir(), ffs)
	if err != nil {
		t.Fatal(err)
	}
	degrades := 0
	cs.OnDegrade(func(error) { degrades++ })
	fail := ffs.Inject(&fsio.Fault{Op: fsio.OpWrite, Err: syscall.EIO})
	d := testDigest("latch")
	payload := json.RawMessage(`{"shards":[]}`)

	for i := 0; i < ckptDegradeAfter; i++ {
		if err := cs.Save(d, payload); err == nil {
			t.Fatalf("save %d succeeded through a failing write", i)
		}
	}
	if !cs.Degraded() || degrades != 1 {
		t.Fatalf("after %d failures: degraded %v, OnDegrade fired %d times; want true and 1", ckptDegradeAfter, cs.Degraded(), degrades)
	}
	hits := ffs.Hits(fail)
	for i := 0; i < 5; i++ {
		if err := cs.Save(d, payload); err != nil {
			t.Fatalf("degraded save returned %v, want a silent no-op", err)
		}
	}
	if got := ffs.Hits(fail); got != hits {
		t.Fatalf("degraded store still writes: %d write attempts, want %d", got, hits)
	}
	if degrades != 1 {
		t.Fatalf("OnDegrade fired %d times, want once", degrades)
	}
}

// TestCheckpointStoreFailStreakResets: a success between failures resets
// the streak, so isolated transient failures never degrade the store.
func TestCheckpointStoreFailStreakResets(t *testing.T) {
	ffs := fsio.NewFaulty(nil)
	cs, err := NewCheckpointStore(t.TempDir(), ffs)
	if err != nil {
		t.Fatal(err)
	}
	d := testDigest("streak")
	payload := json.RawMessage(`{"shards":[]}`)
	save := func(failing bool) {
		t.Helper()
		if failing {
			ffs.Inject(&fsio.Fault{Op: fsio.OpWrite, Err: syscall.ENOSPC, Count: 1})
		}
		if err := cs.Save(d, payload); (err != nil) != failing {
			t.Fatalf("save (failing=%v) returned %v", failing, err)
		}
		ffs.Clear()
	}
	for _, failing := range []bool{true, true, false, true, true} {
		save(failing)
	}
	if cs.Degraded() {
		t.Fatal("store degraded although no failure streak reached the limit")
	}
	save(true)
	if !cs.Degraded() {
		t.Fatalf("store not degraded after %d consecutive failures", ckptDegradeAfter)
	}
	if st := cs.Stats(); st.Saved != 1 {
		t.Fatalf("saved = %d, want 1", st.Saved)
	}
}
