// Command drserverd runs the DR-connection admission service as an HTTP
// daemon: it generates a topology, wraps the elastic-QoS manager in the
// internal/server actor loop, and serves the JSON API until SIGINT/SIGTERM,
// then shuts down gracefully (HTTP first, then the command loop drains).
//
//	drserverd -addr :8080 -nodes 100 -seed 1
//
// With -data-dir the daemon is durable: every mutation is written to a
// write-ahead journal before it is applied, snapshots bound replay, and a
// restart (or a kill -9) rebuilds the exact pre-crash state from disk. If
// the replayed state fails the invariant audit the daemon refuses to serve
// and exits non-zero — better no service than a service lying about its
// reservations. A degraded daemon (invariant violation at run time) can be
// returned to service with POST /v1/admin/recover, or automatically with
// -auto-recover.
//
// Under sustained overload (actor-queue delay above 100ms for a second) the
// daemon sheds new establishes with 503 + Retry-After while terminations,
// repairs and reads stay live; -rate-limit adds a per-client token bucket
// (429 + Retry-After) on top.
//
// With -forecast-interval the daemon runs the live analytic control plane:
// the paper's Markov model is re-solved from live-estimated parameters on
// that cadence and served on GET /v1/forecast (plus POST /v1/forecast/whatif
// admission counterfactuals); -forecast-predictive lets model-predicted
// saturation pre-latch overload shedding before the reactive detector fires.
//
// The routes are listed where they are served: server.NewHandler (the
// admission API, one handler set for both planes), replica.Node.FrontHandler
// (promotion and the replication stream and snapshot of a journaled plane)
// and shard.NewHandler (GET /v1/shards on a sharded one).
//
// With -shards N (N > 1) the daemon partitions the topology into N region
// shards, each with its own manager, actor loop and journal directory
// (shard-000, shard-001, ... under -data-dir); cross-shard establishes go
// through a two-phase prepare/commit across the owning shards, and the
// sharded front end adds GET /v1/shards. -shards 1 (the default) is
// byte-identical to the unsharded daemon.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"drqos/internal/core"
	"drqos/internal/forecast"
	"drqos/internal/journal"
	"drqos/internal/manager"
	"drqos/internal/replica"
	"drqos/internal/server"
	"drqos/internal/shard"
	"drqos/internal/topology"
)

// oneProcessor says run() puts a single plane on one processor (DESIGN.md
// "One processor"). main sets it unless the environment names a count;
// tests call run() without it, so they keep the runtime default.
var oneProcessor bool

func main() {
	oneProcessor = os.Getenv("GOMAXPROCS") == ""
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "drserverd:", err)
		os.Exit(1)
	}
}

// config is the parsed command line.
type config struct {
	addr      string
	kind      string
	nodes     int
	seed      uint64
	capacity  int64
	policy    string
	noBackup  bool
	noMux     bool
	drain     time.Duration
	shards    int
	snapEvery int

	replicaOf  string
	failoverTO time.Duration
	lease      time.Duration

	dataDir string
	fsync   int

	autoRecover bool

	rateLimit, rateBurst float64
	pprof                bool

	forecastInterval   time.Duration
	forecastPredictive bool
}

func parseFlags(args []string) (*config, error) {
	c := &config{}
	fs := flag.NewFlagSet("drserverd", flag.ContinueOnError)
	fs.StringVar(&c.addr, "addr", ":8080", "listen address")
	fs.StringVar(&c.kind, "kind", "waxman", "topology: waxman or tier")
	fs.IntVar(&c.nodes, "nodes", 100, "node count (waxman)")
	fs.Uint64Var(&c.seed, "seed", 1, "topology seed")
	fs.Int64Var(&c.capacity, "capacity", int64(core.PaperCapacity), "link capacity per direction (Kbps)")
	fs.StringVar(&c.policy, "policy", "coefficient", "adaptation policy: coefficient or max-utility")
	fs.BoolVar(&c.noBackup, "no-require-backup", false, "accept unprotectable connections")
	fs.BoolVar(&c.noMux, "no-multiplex", false, "disable backup multiplexing")
	fs.DurationVar(&c.drain, "drain", 10*time.Second, "graceful-shutdown budget")
	fs.IntVar(&c.shards, "shards", 1, "region shards; >1 partitions the topology into per-region manager+journal shards with two-phase cross-shard establishes (1 = the classic single-plane daemon)")

	// Replication / high availability.
	fs.StringVar(&c.replicaOf, "replica-of", "", "boot as a warm standby of this primary base URL (e.g. http://10.0.0.1:8080), continuously replaying its journal stream; requires -data-dir")
	fs.DurationVar(&c.failoverTO, "failover-timeout", 750*time.Millisecond, "a standby promotes itself after this long without a message from the primary's stream (0 = manual promotion via POST /v1/admin/promote only)")
	fs.DurationVar(&c.lease, "lease", -1, "lease-based primary fencing: a primary that goes this long without a standby acknowledgment stops acknowledging mutations (503) until acknowledgments resume; must be shorter than -failover-timeout (-1 = failover-timeout/2, 0 = disabled)")

	// Durability.
	fs.StringVar(&c.dataDir, "data-dir", "", "journal directory; empty runs in-memory (no durability)")
	fs.IntVar(&c.fsync, "fsync", 1, "1 = sync the journal before acknowledging each event, durable against power loss (concurrent syncs are batched by group commit); negative = let the OS flush")
	fs.IntVar(&c.snapEvery, "snapshot-every", 1024, "write a state snapshot every N journaled events (negative disables)")

	// Automatic recovery from degraded mode.
	fs.BoolVar(&c.autoRecover, "auto-recover", false, "on an invariant violation, rebuild from the journal automatically (capped exponential backoff, until it succeeds) instead of waiting for POST /v1/admin/recover")

	// HTTP front end.
	fs.Float64Var(&c.rateLimit, "rate-limit", 0, "per-client mutation budget in requests/second, keyed by X-Client-ID or remote host (0 disables)")
	fs.Float64Var(&c.rateBurst, "rate-burst", 0, "per-client burst allowance on top of -rate-limit (0 = same as -rate-limit)")
	fs.BoolVar(&c.pprof, "pprof", false, "mount net/http/pprof under /debug/pprof/ for live overload investigation")

	// Live analytic control plane (internal/forecast).
	fs.DurationVar(&c.forecastInterval, "forecast-interval", 0, "re-solve the live Markov forecast this often, serving GET /v1/forecast (0 disables forecasting)")
	fs.BoolVar(&c.forecastPredictive, "forecast-predictive", false, "let model-predicted saturation pre-latch overload shedding before the reactive queue-delay detector fires")

	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if c.replicaOf != "" && c.dataDir == "" {
		return nil, errors.New("-replica-of needs -data-dir: a standby replays the primary's journal into its own")
	}
	if c.replicaOf != "" && c.shards > 1 {
		return nil, errors.New("-replica-of is incompatible with -shards > 1 (replication is per-plane)")
	}
	if c.forecastInterval > 0 && c.shards > 1 {
		return nil, errors.New("-forecast-interval is incompatible with -shards > 1 (the live model is per-plane)")
	}
	if c.forecastPredictive && c.forecastInterval <= 0 {
		return nil, errors.New("-forecast-predictive needs -forecast-interval: without a solved model there is nothing to predict from")
	}
	if c.fsync >= 0 && c.fsync != 1 {
		return nil, fmt.Errorf("-fsync %d is not a policy: 1 syncs every event before it is acknowledged, a negative value leaves flushing to the OS", c.fsync)
	}
	if c.lease < 0 {
		c.lease = c.failoverTO / 2
	}
	if c.lease > 0 && c.failoverTO > 0 && c.lease >= c.failoverTO {
		return nil, fmt.Errorf("-lease (%s) must be shorter than -failover-timeout (%s): a standby must outwait the primary's lease before promoting", c.lease, c.failoverTO)
	}
	return c, nil
}

// meta is the marker a data directory written under c carries; it is also
// all the daemon needs to build its topology and admission config.
func (c *config) meta() core.DataMeta {
	m := core.DataMeta{
		Kind: c.kind, Nodes: c.nodes, Seed: c.seed, CapacityKbps: c.capacity,
		Policy: c.policy, RequireBackup: !c.noBackup, Multiplex: !c.noMux,
	}
	if c.shards > 1 {
		m.Shards = c.shards
	}
	return m
}

// journalOptions is the journal tuning, one journal or one per shard.
func (c *config) journalOptions() journal.Options {
	return journal.Options{FsyncEvery: c.fsync, GroupCommit: c.fsync == 1}
}

// serverOptions is the part of the actor-loop tuning both planes share;
// the single plane adds its forecaster.
func (c *config) serverOptions() server.Options {
	return server.Options{SnapshotEvery: c.snapEvery, AutoRecover: c.autoRecover}
}

// plane is a booted admission plane: the API it serves and how to drain it
// (command loops first, then journals) once the HTTP server has stopped.
type plane struct {
	handler http.Handler
	drain   func(context.Context) error
	// shutdown, when set, runs as the HTTP server starts shutting down:
	// it ends the long-lived exchanges the server would wait for.
	shutdown func()
}

// run boots the daemon args describe and serves until ctx is done, then
// drains. listening, when non-nil, is told the bound address (tests listen
// on port 0).
func run(ctx context.Context, args []string, listening func(net.Addr)) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}
	if oneProcessor && cfg.shards == 1 {
		runtime.GOMAXPROCS(1)
	}
	sys, mcfg, err := cfg.meta().Build()
	if err != nil {
		return err
	}
	log.Printf("processors: %d (GOMAXPROCS)", runtime.GOMAXPROCS(0))
	m := sys.Metrics()
	log.Printf("topology: %d nodes, %d links, diameter %d, avg hops %.2f (seed %d)",
		m.Nodes, m.Edges, m.Diameter, m.AvgHops, cfg.seed)

	var front []server.HandlerOption
	if cfg.rateLimit > 0 {
		front = append(front, server.WithRateLimit(cfg.rateLimit, cfg.rateBurst))
		log.Printf("rate limit: %.3g req/s per client (burst %.3g)", cfg.rateLimit, cfg.rateBurst)
	}
	if cfg.pprof {
		front = append(front, server.WithPprof())
		log.Printf("pprof: serving /debug/pprof/")
	}

	if cfg.dataDir != "" {
		if err := core.CheckMeta(cfg.dataDir, cfg.meta()); err != nil {
			return err
		}
	}
	boot := bootSingle
	if cfg.shards > 1 {
		boot = bootSharded
	}
	p, err := boot(cfg, sys.Graph(), mcfg, front)
	if err != nil {
		return err
	}
	return serve(ctx, cfg, p, listening)
}

// serve runs the HTTP server over p until ctx is done (or the listener
// dies), then shuts down within the drain budget: HTTP first, so no new
// command arrives, then the plane.
func serve(ctx context.Context, cfg *config, p plane, listening func(net.Addr)) error {
	drain := func() error {
		shCtx, cancel := context.WithTimeout(context.Background(), cfg.drain)
		defer cancel()
		return p.drain(shCtx)
	}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		_ = drain()
		return err
	}
	// Hardening: slow or hostile clients must not pin connections (and
	// goroutines) forever.
	httpSrv := &http.Server{
		Handler:           p.handler,
		ReadTimeout:       30 * time.Second, // full request read
		ReadHeaderTimeout: 5 * time.Second,  // slowloris guard
		IdleTimeout:       2 * time.Minute,  // keep-alive connections
		MaxHeaderBytes:    1 << 20,
	}
	if p.shutdown != nil {
		// Shutdown waits for every handler, and a replication stream's
		// handler runs until told to end.
		httpSrv.RegisterOnShutdown(p.shutdown)
	}
	log.Printf("listening on %s", ln.Addr())
	if listening != nil {
		listening(ln.Addr())
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	select {
	case err := <-errCh:
		_ = drain()
		return err // listener died before any signal
	case <-ctx.Done():
	}
	log.Printf("shutting down (budget %s)", cfg.drain)
	shCtx, cancel := context.WithTimeout(context.Background(), cfg.drain)
	defer cancel()
	if err := httpSrv.Shutdown(shCtx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	if err := <-errCh; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return p.drain(shCtx)
}

// bootSingle boots the classic single plane: one manager behind one actor
// loop, journaled and replication-ready with -data-dir.
func bootSingle(cfg *config, g *topology.Graph, mcfg manager.Config, front []server.HandlerOption) (plane, error) {
	opts := cfg.serverOptions()
	if cfg.forecastInterval > 0 {
		opts.Forecast = &forecast.Config{Interval: cfg.forecastInterval, Predictive: cfg.forecastPredictive}
		log.Printf("forecast: solving every %s (predictive=%v)", cfg.forecastInterval, cfg.forecastPredictive)
	}
	if cfg.dataDir == "" {
		srv, _, err := server.Open(g, mcfg, "", journal.Options{}, opts)
		if err != nil {
			return plane{}, err
		}
		return plane{handler: server.NewHandler(srv, front...), drain: drainSingle(srv, nil)}, nil
	}
	// Every journaled daemon ships its journal: the replication endpoints
	// are mounted whether or not a standby exists yet, so one can join
	// without a primary restart.
	jopt := cfg.journalOptions()
	node, handler, rec, err := replica.Open(g, mcfg, cfg.dataDir, jopt, opts, replica.Config{
		PrimaryURL:      cfg.replicaOf,
		FailoverTimeout: cfg.failoverTO,
		Lease:           cfg.lease,
	}, front...)
	if errors.Is(err, server.ErrJournal) {
		return plane{}, fmt.Errorf("refusing to serve: journal replay of %s did not produce an audit-clean state: %w\n"+
			"(the on-disk history and the state machine disagree — restore the directory from a backup, "+
			"or move it aside to start from an empty state)", cfg.dataDir, err)
	}
	if err != nil {
		return plane{}, err
	}
	if jopt.GroupCommit {
		log.Printf("journal: group commit on (concurrent fsyncs batched, per-event durability preserved)")
	}
	if rec.TornBytes > 0 {
		log.Printf("journal: discarded %d bytes of torn tail (mid-write crash)", rec.TornBytes)
	}
	log.Printf("journal: recovered %s to seq %d (snapshot at %d, %d events replayed, %d connections alive)",
		cfg.dataDir, rec.LastSeq, rec.SnapshotSeq, len(rec.Events), node.Server().View().Alive)
	if cfg.lease > 0 {
		log.Printf("replica: lease fencing on (a primary without a standby acknowledgment for %s refuses mutations)", cfg.lease)
	}
	if cfg.replicaOf != "" {
		log.Printf("replica: following %s (failover after %s without a primary, 0 = manual)", cfg.replicaOf, cfg.failoverTO)
		go func() {
			if err := node.Run(context.Background()); err != nil {
				log.Printf("replica: follower loop exited: %v", err)
			}
		}()
	}
	// Stop, at the HTTP server's shutdown, ends the streams it would wait
	// for, and before the drain halts the follower loop.
	return plane{handler: handler, drain: drainSingle(node.Server(), node), shutdown: node.Stop}, nil
}

// drainSingle drains a single plane's command loop, after stopping its
// replication node (nil in memory), then closes its journal: the drain
// guarantees no more appends, and Close syncs the final segment.
func drainSingle(srv *server.Server, node *replica.Node) func(context.Context) error {
	return func(ctx context.Context) error {
		if node != nil {
			node.Stop()
		}
		if err := srv.Shutdown(ctx); err != nil {
			return fmt.Errorf("command-loop drain: %w", err)
		}
		log.Printf("drained %d commands, bye", srv.Processed())
		if jnl := srv.Journal(); jnl != nil {
			return jnl.Close()
		}
		return nil
	}
}

// bootSharded boots the partitioned admission plane: one manager + actor
// loop + journal per region shard behind the coordinator's global API.
func bootSharded(cfg *config, g *topology.Graph, mcfg manager.Config, front []server.HandlerOption) (plane, error) {
	c, err := shard.New(g, shard.Options{
		Shards:  cfg.shards,
		Dir:     cfg.dataDir,
		Manager: mcfg,
		Server:  cfg.serverOptions(),
		Journal: cfg.journalOptions(),
	})
	if err != nil {
		return plane{}, fmt.Errorf("sharded boot: %w", err)
	}
	dir := cfg.dataDir
	if dir == "" {
		dir = "(in-memory)"
	}
	log.Printf("sharded: %d shards over %d regions (%d nodes, %d links), journals under %s",
		c.Plan().Shards, c.Plan().Regions, g.NumNodes(), g.NumLinks(), dir)
	return plane{handler: shard.NewHandler(c, front...), drain: func(ctx context.Context) error {
		if err := c.Shutdown(ctx); err != nil {
			return fmt.Errorf("shard drain: %w", err)
		}
		log.Printf("all %d shards drained, bye", cfg.shards)
		return nil
	}}, nil
}
