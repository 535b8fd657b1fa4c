package serve

import (
	"sync"
	"time"
)

// ShardState is one shard's dispatch lifecycle in a job that a Runner
// split across other services (the fleet coordinator's).
type ShardState string

const (
	ShardPending ShardState = "pending"
	ShardRunning ShardState = "running"
	ShardDone    ShardState = "done"
	ShardFailed  ShardState = "failed"
)

// ShardStatus is the serialisable dispatch state of one shard.
type ShardStatus struct {
	Index    int        `json:"index"`
	Digest   Digest     `json:"digest"`
	State    ShardState `json:"state"`
	Worker   string     `json:"worker,omitempty"`
	Attempts int        `json:"attempts,omitempty"`
	Cached   bool       `json:"cached,omitempty"`
	QueuedMs int64      `json:"queuedMs,omitempty"`
	RunMs    int64      `json:"runMs,omitempty"`
	Error    string     `json:"error,omitempty"`
}

// ShardLog is where a Runner that splits its job records the split: the
// shard table JobStatus serves and BuildTrace draws, and the lifecycle
// lines /v1/jobs/{id}/events streams. Every job owns one; a Runner that
// does not split never touches it.
type ShardLog struct {
	mu     sync.Mutex
	shards []shardRun
	tail   *LineTail // the job's event tail; nil leaves lines unrecorded
}

// shardRun is one shard's status plus its dispatch window, the span the
// trace draws for it.
type shardRun struct {
	ShardStatus
	start, end time.Time
}

// Init replaces the shard table with one entry per planned shard.
func (l *ShardLog) Init(shards []ShardStatus) {
	runs := make([]shardRun, len(shards))
	for i, st := range shards {
		runs[i].ShardStatus = st
	}
	l.mu.Lock()
	l.shards = runs
	l.mu.Unlock()
}

// Set records shard i's current status, stamping its dispatch window
// when it enters running and when it reaches a terminal state.
func (l *ShardLog) Set(i int, st ShardStatus) {
	//lint:allow determinism -- shard dispatch timestamps; not simulation state
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	r := &l.shards[i]
	if st.State == ShardRunning && r.start.IsZero() {
		r.start = now
	}
	if (st.State == ShardDone || st.State == ShardFailed) && r.end.IsZero() {
		r.end = now
	}
	r.ShardStatus = st
}

// Line appends one rendered NDJSON lifecycle line to the job's event
// stream.
func (l *ShardLog) Line(b []byte) {
	if l.tail != nil {
		l.tail.Append(b)
	}
}

// runs snapshots the table with its dispatch windows.
func (l *ShardLog) runs() []shardRun {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]shardRun(nil), l.shards...)
}

// statuses snapshots the table in JobStatus's wire shape; nil when the
// job was not split.
func (l *ShardLog) statuses() []ShardStatus {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.shards) == 0 {
		return nil
	}
	out := make([]ShardStatus, len(l.shards))
	for i, r := range l.shards {
		out[i] = r.ShardStatus
	}
	return out
}
