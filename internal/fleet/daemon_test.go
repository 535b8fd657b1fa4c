package fleet

import "testing"

// TestCoordinatorRejectsWorkerFlags pins that a worker's execution and
// queue flags are usage errors on a coordinator, not settings it would
// silently ignore. The flag set fails before any service starts.
func TestCoordinatorRejectsWorkerFlags(t *testing.T) {
	for _, flag := range [][]string{
		{"-job-timeout", "1m"},
		{"-retries", "2"},
		{"-parallelism", "2"},
		{"-engine", "reference"},
		{"-capture-events", "10"},
		{"-checkpoint-every", "2"},
		{"-queue", "8"},
		{"-checkpoints", "none"},
	} {
		args := append([]string{"-workers", "http://127.0.0.1:1"}, flag...)
		if code := DaemonMain(args); code != 2 {
			t.Errorf("mcservd -coordinator %v exited %d, want 2 (usage error)", flag, code)
		}
	}
}
