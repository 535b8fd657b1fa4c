// Command mcbench is the repository's benchmark. It drives the shipped
// mcservd binary over loopback HTTP with one of its seeded workloads,
// checks every output against the simulator run in-process, and prints
// the end-to-end metrics (or, with --trace 1, the per-layer metrics) by
// name and unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through mcbench/run.sh, which builds
// mcservd and this command first:
//
//	bash mcbench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// The metrics of the two kinds of run, with their units, as
// BENCHMARK.json lists them; a run that reports any other set fails.
var (
	endToEndMetrics = []metricDef{
		{"ref_work_per_s", "1/s"}, {"ref_jobs_per_s", "1/s"}, {"ref_latency_p50_ms", "ms"},
		{"setup_s", "s"}, {"peak_rss_mb", "MB"},
	}
	perLayerMetrics = []metricDef{
		{"serve.decode_us", "us"}, {"serve.journal_fsync_us", "us"}, {"serve.cache_put_us", "us"},
		{"serve.queue_wait_ms_p90", "ms"}, {"serve.attempt_ms", "ms"}, {"serve.shard_utilization", "ratio"},
		{"serve.telemetry_us", "us"}, {"serve.http_us", "us"},
		{"serve.allocs_per_job", "count"}, {"serve.refused", "count"},
		{"failed_ratio", "ratio"},
		{"fleet.plan_us", "us"}, {"fleet.merge_ms", "ms"}, {"fleet.dispatch_ms", "ms"},
		{"fleet.shard_run_ms_max", "ms"}, {"fleet.shard_run_ms_min", "ms"},
		{"fleet.speedup_vs_single", "ratio"}, {"fleet.reassigned", "count"},
		{"sim.sweep_ns_per_slot", "ns"}, {"sim.allocs_per_point", "count"}, {"sim.cluster_build_us", "us"},
		{"fastpath.ns_per_slot", "ns"}, {"bus.ns_per_slot_scripted", "ns"},
		{"verify.us_per_pattern", "us"}, {"verify.allocs_per_pattern", "count"},
		{"chaos.run_us", "us"}, {"chaos.ns_per_slot", "ns"}, {"chaos.allocs_per_trial", "count"},
		{"chaos.shrink_ms", "ms"}, {"chaos.executions_per_trial", "ratio"}, {"abcheck.check_us", "us"},
		{"self.http", "ratio"}, {"self.serve", "ratio"}, {"self.sim", "ratio"}, {"self.fastpath", "ratio"},
		{"self.bus", "ratio"}, {"self.verify", "ratio"}, {"self.bench", "ratio"},
		{"self.unattributed", "ratio"}, {"trace.wall_ms", "ms"}, {"trace.overhead_pct", "%"},
		{"host.work_per_s", "1/s"}, {"host.jobs_per_s", "1/s"}, {"host.latency_p50_ms", "ms"},
		{"host.read_latency_p50_ms", "ms"}, {"host.setup_s", "s"}, {"host.kernel_per_s", "1/s"},
	}
	units = map[string]string{}
)

func init() {
	for _, m := range append(append([]metricDef(nil), endToEndMetrics...), perLayerMetrics...) {
		units[m.Name] = m.Unit
	}
}

type metricDef struct{ Name, Unit string }

// metric is one reported figure; its unit is the table's.
type metric struct {
	Name  string
	Value float64
}

// report is what one run prints.
type report struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   []metric
	Lines     []string // the human-readable account, printed before the JSON line
}

func (r *report) linef(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

func main() {
	fs := flag.NewFlagSet("mcbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = fs.Int64("seed", 1, "workload seed: the same seed generates the same jobs")
		seconds = fs.Int("seconds", 20, "measured seconds per closed loop")
		trace   = fs.Int("trace", 0, "1 = traced run: print the per-layer metrics instead of the end-to-end ones")
		bin     = fs.String("mcservd", ".bench_build/bin/mcservd", "mcservd binary")
		dir     = fs.String("dir", ".bench_build/run", "scratch directory for daemon spools (removed afterwards)")
		state   = fs.String("state", ".bench_build/state", "directory keeping each seed's exact counts across runs")
	)
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "mcbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	// Every run must end well inside three minutes, whatever the daemons do.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	runDir := fmt.Sprintf("%s/%s-%d-%d", *dir, w.name, *seed, os.Getpid())
	rep, err := run(ctx, config{
		w: w, seed: *seed, dur: time.Duration(*seconds) * time.Second,
		traced: *trace == 1, bin: *bin, dir: runDir, state: *state,
	})
	_ = os.RemoveAll(runDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcbench:", err)
		os.Exit(1)
	}
	for _, l := range rep.Lines {
		fmt.Println(l)
	}
	want := endToEndMetrics
	if *trace == 1 {
		want = perLayerMetrics
	}
	out, err := resultJSON(rep, want)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// resultJSON renders the result line, the last line of standard
// output: every metric with its value as measured and its unit. The
// metrics must be exactly want.
func resultJSON(r *report, want []metricDef) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range r.Metrics {
		if _, dup := metrics[m.Name]; dup {
			return nil, fmt.Errorf("metric %s reported twice", m.Name)
		}
		metrics[m.Name] = value{m.Value, units[m.Name]}
	}
	for _, m := range want {
		if _, ok := metrics[m.Name]; !ok {
			return nil, fmt.Errorf("metric %s not reported", m.Name)
		}
	}
	if len(metrics) != len(want) {
		return nil, fmt.Errorf("reported %d metrics, want %d", len(metrics), len(want))
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
}
