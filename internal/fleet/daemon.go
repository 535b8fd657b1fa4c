package fleet

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"repro/internal/serve"
)

// DaemonMain is the body of `mcservd -coordinator`: serve's daemon body
// (shared flags, storage, listen, signals and drain) running a
// coordinator. Its own flags describe the worker pool and the dispatch;
// the shared ones set its lanes (-shards, the logical jobs dispatching at
// once), cache, spool and journal. A worker's execution flags
// (-parallelism, -engine, -job-timeout and the like) are not accepted:
// a coordinator has nothing to run. The returned int is the process exit
// code.
func DaemonMain(args []string) int {
	var (
		cfg     Config
		workers string
	)
	return serve.RunDaemon(args, serve.Role{
		Name: "coordinator",
		Addr: "127.0.0.1:8330",
		Flags: func(fs *flag.FlagSet, _ *serve.Config) {
			fs.StringVar(&workers, "workers", "", "comma-separated worker base URLs (required)")
			fs.IntVar(&cfg.ShardsPerJob, "shards-per-job", 0, "target shards per logical job (0 = 2x workers)")
			fs.IntVar(&cfg.AssignRetries, "assign-retries", 3, "dispatch attempts per shard before the job fails")
			fs.DurationVar(&cfg.ShardWait, "shard-wait", 10*time.Minute, "end-to-end budget per shard dispatch")
			fs.DurationVar(&cfg.Heartbeat, "heartbeat", time.Second, "worker heartbeat cadence")
		},
		Start: func(sc serve.Config) (serve.Service, error) {
			for _, u := range strings.Split(workers, ",") {
				if u = strings.TrimSpace(u); u != "" {
					cfg.Workers = append(cfg.Workers, strings.TrimRight(u, "/"))
				}
			}
			if len(cfg.Workers) == 0 {
				return serve.Service{}, fmt.Errorf("-coordinator requires -workers (comma-separated base URLs)")
			}
			c, err := newCoordinator(cfg, sc)
			if err != nil {
				return serve.Service{}, err
			}
			c.Start()
			return serve.Service{Sched: c.Scheduler, Handler: NewServer(c), Close: c.registry.Stop}, nil
		},
	})
}
