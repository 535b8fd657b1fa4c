package serve

import (
	"context"
	"encoding/json"
	"testing"
)

// memCheckpoint is an in-memory CheckpointIO target that records every
// load and save.
type memCheckpoint struct {
	payload json.RawMessage // what Load returns; nil means no checkpoint
	loads   int
	saves   []json.RawMessage
	onSave  func()
}

func (m *memCheckpoint) io(every int) *CheckpointIO {
	return &CheckpointIO{
		Every: every,
		Load: func() (json.RawMessage, bool) {
			m.loads++
			return m.payload, m.payload != nil
		},
		Save: func(b json.RawMessage) error {
			m.saves = append(m.saves, append(json.RawMessage(nil), b...))
			if m.onSave != nil {
				m.onSave()
			}
			return nil
		},
	}
}

// TestExecuteResumesFromChunks is the determinism contract behind crash
// recovery on one node: a checkpointed job runs as plan chunks, and a
// run resumed from the payload saved after any chunk produces the exact
// bytes of an uncheckpointed run while re-running only the chunks the
// payload lacks. Entries that do not match the plan, and payloads in the
// earlier per-kind formats, are ignored rather than adopted.
func TestExecuteResumesFromChunks(t *testing.T) {
	const every = 4
	for _, tc := range []struct {
		name     string
		raw      string
		chunks   int    // ceil(units / every)
		legacy   string // a payload in the earlier per-kind checkpoint format
		findings []int  // trials of the campaign's findings
	}{
		{
			name:   "sweep",
			raw:    `{"sweep":{"protocol":"majorcan_5","frames":50,"berStar":0.02,"seed":7,"seeds":12,"eofOnly":true,"resetCounters":true}}`,
			chunks: 3,
			legacy: `[{"seed":7,"slots":1,"bitFlips":0,"framesSent":1,"imos":0,"duplicates":0,"lostEverywhere":0,"incomplete":0,"atomicBroadcast":true}]`,
		},
		{
			// Seed 18 finds an Agreement violation at trial 26, so the
			// later chunks carry a finding across the resume boundary.
			name:     "campaign",
			raw:      `{"campaign":{"protocol":"can","frames":1,"trials":30,"seed":18,"kinds":["view-flip"],"probes":["agreement"]}}`,
			chunks:   8,
			legacy:   `{"trial":8,"executions":8}`,
			findings: []int{26},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			spec := decodeSpec(t, tc.raw)
			want, err := Execute(ctx, spec, ExecOptions{Parallelism: 2})
			if err != nil {
				t.Fatal(err)
			}
			var found struct{ Findings []struct{ Trial int } }
			if err := json.Unmarshal(want, &found); err != nil || len(found.Findings) != len(tc.findings) {
				t.Fatalf("reference run: %v, findings %+v, want trials %v", err, found.Findings, tc.findings)
			}
			for i, f := range found.Findings {
				if f.Trial != tc.findings[i] {
					t.Fatalf("reference finding %d at trial %d, want %d", i, f.Trial, tc.findings[i])
				}
			}
			run := func(m *memCheckpoint) {
				t.Helper()
				got, err := Execute(ctx, spec, ExecOptions{Parallelism: 2, Checkpoint: m.io(every)})
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != string(want) {
					t.Fatalf("checkpointed run diverged:\n got %s\nwant %s", got, want)
				}
			}

			// First run: one payload after every chunk but the last.
			first := &memCheckpoint{}
			run(first)
			if first.loads != 1 || len(first.saves) != tc.chunks-1 {
				t.Fatalf("first run: %d loads, %d saves; want 1 and %d", first.loads, len(first.saves), tc.chunks-1)
			}

			// Resume from each payload: only the missing chunks run, so
			// one save fewer per adopted chunk.
			for k, payload := range first.saves {
				m := &memCheckpoint{payload: payload}
				run(m)
				if want := tc.chunks - 2 - k; len(m.saves) != want {
					t.Fatalf("resume after chunk %d: %d saves, want %d (adopted chunks re-ran)", k, len(m.saves), want)
				}
			}

			// A foreign digest or an out-of-range index adopts nothing.
			var prog planProgress
			if err := json.Unmarshal(first.saves[1], &prog); err != nil || len(prog.Shards) != 2 {
				t.Fatalf("payload after chunk 1: %v, %d entries", err, len(prog.Shards))
			}
			e0, e1 := prog.Shards[0], prog.Shards[1]
			bogus, err := json.Marshal(planProgress{Shards: []doneShard{
				{Index: 0, Digest: e1.Digest, Result: e1.Result},
				{Index: tc.chunks, Digest: e0.Digest, Result: e0.Result},
				{Index: -1, Digest: e0.Digest, Result: e0.Result},
			}})
			if err != nil {
				t.Fatal(err)
			}
			for name, payload := range map[string]string{"mismatched entries": string(bogus), "earlier format": tc.legacy} {
				m := &memCheckpoint{payload: json.RawMessage(payload)}
				run(m)
				if len(m.saves) != tc.chunks-1 {
					t.Fatalf("%s: %d saves, want %d (an entry was adopted)", name, len(m.saves), tc.chunks-1)
				}
			}

			// A cancelled run fails: before the first chunk it saves
			// nothing, and after a save it saves nothing more.
			cancelled, cancel := context.WithCancel(ctx)
			cancel()
			m := &memCheckpoint{}
			if _, err := Execute(cancelled, spec, ExecOptions{Checkpoint: m.io(every)}); err == nil || len(m.saves) != 0 {
				t.Fatalf("pre-cancelled run: err %v, %d saves; want an error and 0", err, len(m.saves))
			}
			cancelled, cancel = context.WithCancel(ctx)
			defer cancel()
			m = &memCheckpoint{onSave: cancel}
			if _, err := Execute(cancelled, spec, ExecOptions{Checkpoint: m.io(every)}); err == nil || len(m.saves) != 1 {
				t.Fatalf("run cancelled at the first save: err %v, %d saves; want an error and 1", err, len(m.saves))
			}
		})
	}
}

// TestExecuteOneChunkDoesNoCheckpointIO: a job that runs as one chunk —
// a stop-at-first campaign, a job of no more units than Every, a verify
// — never loads or saves a checkpoint.
func TestExecuteOneChunkDoesNoCheckpointIO(t *testing.T) {
	for name, raw := range map[string]string{
		"stop-at-first campaign": `{"campaign":{"protocol":"can","frames":1,"trials":30,"seed":18,"kinds":["view-flip"],"probes":["agreement"],"stopAtFirst":true}}`,
		"sweep of Every seeds":   `{"sweep":{"protocol":"majorcan_5","frames":50,"berStar":0.02,"seed":7,"seeds":4,"eofOnly":true,"resetCounters":true}}`,
		"verify":                 `{"verify":{"protocol":"majorcan_5","maxFlips":1}}`,
	} {
		spec := decodeSpec(t, raw)
		want, err := Execute(context.Background(), spec, ExecOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m := &memCheckpoint{}
		got, err := Execute(context.Background(), spec, ExecOptions{Checkpoint: m.io(4)})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if string(got) != string(want) {
			t.Fatalf("%s: checkpointed run diverged", name)
		}
		if m.loads != 0 || len(m.saves) != 0 {
			t.Fatalf("%s: %d loads, %d saves; want none", name, m.loads, len(m.saves))
		}
	}
}
