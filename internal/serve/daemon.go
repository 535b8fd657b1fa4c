package serve

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// DaemonMain is the body of the mcservd command: flag parsing, scheduler
// construction (journal recovery included), HTTP serving and graceful
// drain. It lives in the library so the crash-recovery harness can run a
// real daemon process by re-executing the test binary — the process that
// gets SIGKILLed is byte-for-byte the code that ships.
//
// The returned int is the process exit code: 0 after a clean drain,
// nonzero on startup failure or an incomplete drain.
func DaemonMain(args []string) int {
	var ckptDir, mutexProf, blockProf string
	return RunDaemon(args, Role{
		Addr: "127.0.0.1:8329",
		// The execution flags are the worker's own: a coordinator runs no
		// simulation, so it does not accept them.
		Flags: func(fs *flag.FlagSet, cfg *Config) {
			fs.IntVar(&cfg.QueueDepth, "queue", 64, "per-shard queue depth")
			fs.DurationVar(&cfg.JobTimeout, "job-timeout", 10*time.Minute, "per-attempt job timeout")
			fs.IntVar(&cfg.MaxRetries, "retries", 1, "max retries for transient job failures")
			fs.IntVar(&cfg.Parallelism, "parallelism", 1, "intra-job parallelism (sweep points, verify patterns)")
			fs.StringVar(&ckptDir, "checkpoints", "auto", "job checkpoint directory (auto = <spool>/checkpoints, none = disabled)")
			fs.IntVar(&cfg.CheckpointEvery, "checkpoint-every", 8, "checkpoint chunk size in work units (sweep seeds, campaign trials)")
			fs.IntVar(&cfg.CaptureEvents, "capture-events", 0, "per-job trace capture buffer in events (0 = default)")
			// The engine is an execution knob like parallelism: it changes
			// how fast jobs run, never their content-addressed results, so
			// it is a daemon flag and stays out of the job specs.
			fs.Func("engine", "bit-slot engine: fast or reference (identical traces; default fast)", func(v string) error {
				return sim.SetDefaultEngine(sim.EngineChoice(v))
			})
			fs.StringVar(&mutexProf, "mutexprofile", "", "write a mutex-contention profile here on clean exit")
			fs.StringVar(&blockProf, "blockprofile", "", "write a blocking-event profile here on clean exit")
		},
		Start: func(cfg Config) (Service, error) {
			cfg.CheckpointDir = storagePath(ckptDir, cfg.SpoolDir, "checkpoints")
			// Contention profiling is opt-in and sampled at full rate; the
			// profiles are written when the daemon exits cleanly, so a drain
			// (not a SIGKILL) is required to get them.
			stopContention := obs.StartContention(mutexProf, blockProf)
			stop := func() {
				if err := stopContention(); err != nil {
					cfg.Logger.Warn("contention profile", "err", err)
				}
			}
			sched, err := NewScheduler(cfg)
			if err != nil {
				stop()
				return Service{}, err
			}
			return Service{Sched: sched, Handler: NewServer(sched), Close: stop}, nil
		},
	})
}

// Role is what a daemon serves on DaemonMain's body, which owns the
// shared flags, storage resolution, listen, portfile, signals and drain.
// A plain worker is one role and the fleet coordinator the other.
type Role struct {
	// Name labels the flag set and the log component ("mcservd" if empty).
	Name string
	// Addr is the default listen address.
	Addr string
	// Flags, if non-nil, registers the role's own flags; those that set
	// scheduler config bind straight into cfg, which Start then receives.
	Flags func(fs *flag.FlagSet, cfg *Config)
	// Start builds the service from the scheduler config the flags
	// describe.
	Start func(cfg Config) (Service, error)
}

// Service is a started role: the scheduler the daemon drains, the HTTP
// handler it serves, and an optional hook run after the drain.
type Service struct {
	Sched   *Scheduler
	Handler http.Handler
	Close   func()
}

// storagePath resolves a storage flag: "auto" is name under the spool
// (nothing without one), "none" or "off" disables, anything else is a
// path.
func storagePath(v, spool, name string) string {
	switch v {
	case "auto":
		if spool == "" {
			return ""
		}
		return filepath.Join(spool, name)
	case "none", "off":
		return ""
	}
	return v
}

// RunDaemon runs role on the daemon body and returns the process exit
// code, as DaemonMain does.
func RunDaemon(args []string, role Role) int {
	name, component := "mcservd", "mcservd"
	if role.Name != "" {
		name, component = "mcservd -"+role.Name, role.Name
	}
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	var cfg Config
	fs.IntVar(&cfg.Shards, "shards", 4, "job lanes: jobs running at once (logical jobs dispatching at once on a coordinator)")
	fs.IntVar(&cfg.CacheEntries, "cache", 256, "in-memory result cache entries")
	fs.StringVar(&cfg.SpoolDir, "spool", "", "result spool directory (empty = memory only)")
	var (
		addr         = fs.String("addr", role.Addr, "listen address")
		journalPath  = fs.String("journal", "auto", "write-ahead job journal path (auto = <spool>/journal.wal, none = disabled)")
		drainTimeout = fs.Duration("drain-timeout", 5*time.Minute, "graceful drain budget on SIGTERM")
		portFile     = fs.String("portfile", "", "write the bound listen address to this file once serving")
		logFormat    = fs.String("log-format", "text", "log output format: text or json")
	)
	if role.Flags != nil {
		role.Flags(fs, &cfg)
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	logger, err := obs.NewLogger(os.Stderr, *logFormat, slog.LevelInfo)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcservd:", err)
		return 2
	}
	logger = logger.With("component", component)

	cfg.JournalPath = storagePath(*journalPath, cfg.SpoolDir, "journal.wal")
	cfg.Logger = logger
	// Durability degradation and journal recovery land in the daemon log
	// as NDJSON. The no-op line hook makes the stream flush per line:
	// these events are rare and must be visible immediately — buffered,
	// they would never surface (nothing flushes a service sink) and a
	// crash would eat them.
	cfg.ServiceEvents = obs.NewJSONLStream(os.Stderr, 0, func() {})
	svc, err := role.Start(cfg)
	if err != nil {
		logger.Error("startup failed", "err", err)
		return 1
	}
	if svc.Close != nil {
		defer svc.Close()
	}
	sched := svc.Sched

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listen failed", "addr", *addr, "err", err)
		return 1
	}
	if *portFile != "" {
		if err := os.WriteFile(*portFile, []byte(ln.Addr().String()), 0o644); err != nil {
			logger.Error("portfile write failed", "path", *portFile, "err", err)
			return 1
		}
	}
	srv := &http.Server{Handler: svc.Handler}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	logger.Info("listening",
		"addr", ln.Addr().String(), "shards", cfg.Shards,
		"cache", cfg.CacheEntries, "spool", cfg.SpoolDir)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		logger.Error("serve failed", "err", err)
		return 1
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way

	// Drain: reject new jobs (503), finish what is queued and running,
	// then close the listener. The HTTP server stays up through the
	// drain so clients see 503s, not connection resets.
	logger.Info("draining", "budget", drainTimeout.String())
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := sched.Drain(dctx)
	if err := srv.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("http shutdown", "err", err)
	}
	st := sched.Stats()
	logger.Info("drained",
		"executed", st.Jobs.Executed, "coalesced", st.Jobs.Coalesced,
		"cache_hits", st.Cache.Hits, "failed", st.Jobs.Failed,
		"recovered", st.Durability.RecoveredJobs)
	if drainErr != nil {
		logger.Error("drain incomplete", "err", drainErr)
		return 1
	}
	return 0
}
