// Package fleet is the distributed layer over the simulation service: a
// coordinator — a serve.Scheduler behind serve's own /v1 jobs API —
// whose Runner splits one logical job into content-addressed shard jobs
// with serve.NewPlan, dispatches them to a registry of worker mcservd
// instances, and merges the shard results through serve's
// adopt-run-save-merge loop (serve.Plan.Run).
//
// The merge invariant is the package's whole contract: for any worker
// count, any shard count, and any interleaving of worker failures and
// reassignments, the merged result is byte-identical to what a single
// node running the logical spec would produce. Planning and merging are
// serve's, shared with a single node's checkpoint chunks, so the fleet
// adds only the dispatch.
//
// Shard jobs are ordinary serve.JobSpecs, so they are content-addressed
// by the same digest scheme the workers cache under — a reassigned
// shard re-executes at most once per worker and merges exactly once.
package fleet

import "repro/internal/serve"

// The plan is serve's; these names keep fleet callers compiling.
type (
	Plan  = serve.Plan
	Shard = serve.Shard
)

var NewPlan = serve.NewPlan
