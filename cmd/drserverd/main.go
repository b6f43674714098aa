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
// Under sustained overload (actor-queue delay above -overload-target for
// -overload-interval) the daemon sheds new establishes with 503 +
// Retry-After while terminations, repairs and reads stay live; -rate-limit
// adds a per-client token bucket (429 + Retry-After) on top.
//
// With -forecast-interval the daemon runs the live analytic control plane:
// the paper's Markov model is re-solved from live-estimated parameters on
// that cadence and served on GET /v1/forecast (plus POST /v1/forecast/whatif
// admission counterfactuals); -forecast-predictive lets model-predicted
// saturation pre-latch overload shedding before the reactive detector fires.
//
// Endpoints: POST /v1/connections, DELETE /v1/connections/{id},
// POST /v1/faults/link, POST /v1/admin/recover, GET /v1/stats,
// GET /v1/invariants, GET /v1/forecast, POST /v1/forecast/whatif,
// GET /metrics, GET /healthz, GET /readyz.
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
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"drqos/internal/core"
	"drqos/internal/forecast"
	"drqos/internal/journal"
	"drqos/internal/manager"
	"drqos/internal/overload"
	"drqos/internal/qos"
	"drqos/internal/replica"
	"drqos/internal/server"
	"drqos/internal/shard"
	"drqos/internal/topology"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "drserverd:", err)
		os.Exit(1)
	}
}

// dataMeta pins a data directory to the topology, admission config and
// shard count that produced its journals. Replay is only meaningful against
// the identical deterministic setup (the partition is derived from topology
// and shard count), so a mismatch is a hard startup error. Shards is 0 for
// the single plane, which keeps its meta.json as it always was.
type dataMeta struct {
	Kind          string `json:"kind"`
	Nodes         int    `json:"nodes"`
	Seed          uint64 `json:"seed"`
	CapacityKbps  int64  `json:"capacity_kbps"`
	Policy        string `json:"policy"`
	RequireBackup bool   `json:"require_backup"`
	Multiplex     bool   `json:"multiplex"`
	Shards        int    `json:"shards,omitempty"`
}

// Marker files: a directory is either a single-plane or a sharded
// deployment, never both.
const (
	singleMeta  = "meta.json"
	shardedMeta = "coordinator.json"
)

// checkMeta writes the marker file on first use and verifies it on every
// restart. A directory already claimed by the other kind of deployment is
// refused.
func checkMeta(dir, file, other string, want dataMeta) error {
	path := filepath.Join(dir, file)
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		if _, oerr := os.Stat(filepath.Join(dir, other)); oerr == nil {
			return fmt.Errorf("data dir %s already holds the other kind of deployment (%s); "+
				"a single-plane and a sharded daemon each need their own directory", dir, other)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		b, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(path, append(b, '\n'), 0o644)
	}
	if err != nil {
		return err
	}
	var have dataMeta
	if err := json.Unmarshal(raw, &have); err != nil {
		return fmt.Errorf("data dir %s: unreadable %s: %w", dir, file, err)
	}
	if have != want {
		return fmt.Errorf("data dir %s was written under config %+v, but this process started with %+v — "+
			"journal replay is only valid against the identical topology, admission config and shard count; "+
			"fix the flags or point -data-dir at a fresh directory", dir, have, want)
	}
	return nil
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
	queue     int
	drain     time.Duration
	shards    int
	snapEvery int

	replicaOf  string
	advertise  string
	failoverTO time.Duration
	lease      time.Duration

	dataDir string
	fsync   int
	gcWait  time.Duration

	autoRecover bool
	overload    overload.DetectorConfig

	rateLimit, rateBurst float64
	maxBodyBytes         int64
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
	fs.IntVar(&c.queue, "queue", 256, "actor command-queue depth")
	fs.DurationVar(&c.drain, "drain", 10*time.Second, "graceful-shutdown budget")
	fs.IntVar(&c.shards, "shards", 1, "region shards; >1 partitions the topology into per-region manager+journal shards with two-phase cross-shard establishes (1 = the classic single-plane daemon)")

	// Replication / high availability.
	fs.StringVar(&c.replicaOf, "replica-of", "", "boot as a warm standby of this primary base URL (e.g. http://10.0.0.1:8080), continuously replaying its journal stream; requires -data-dir")
	fs.StringVar(&c.advertise, "advertise", "", "this node's externally reachable base URL, used by a follower to redirect mutations (defaults to the -replica-of protocol idiom; informational for a primary)")
	fs.DurationVar(&c.failoverTO, "failover-timeout", 750*time.Millisecond, "a standby promotes itself after this long without a successful fetch from the primary (0 = manual promotion via POST /v1/admin/promote only)")
	fs.DurationVar(&c.lease, "lease", -1, "lease-based primary fencing: a primary that goes this long without a standby poll stops acknowledging mutations (503) until polling resumes; must be shorter than -failover-timeout (-1 = failover-timeout/2, 0 = disabled)")

	// Durability.
	fs.StringVar(&c.dataDir, "data-dir", "", "journal directory; empty runs in-memory (no durability)")
	fs.IntVar(&c.fsync, "fsync", 1, "fsync the journal every N events (1 = every event, durable against power loss; negative = let the OS flush)")
	fs.IntVar(&c.snapEvery, "snapshot-every", 1024, "write a state snapshot every N journaled events (negative disables)")
	fs.DurationVar(&c.gcWait, "group-commit-max-wait", 2*time.Millisecond, "batch concurrent journal fsyncs under this latency cap, keeping -fsync 1 durability while amortizing the sync (only with -fsync 1; 0 disables group commit)")

	// Automatic recovery from degraded mode.
	fs.BoolVar(&c.autoRecover, "auto-recover", false, "on an invariant violation, rebuild from the journal automatically (capped exponential backoff, until it succeeds) instead of waiting for POST /v1/admin/recover")

	// Overload control plane.
	fs.DurationVar(&c.overload.Target, "overload-target", 100*time.Millisecond, "actor queueing-delay target; sustained delay above it sheds new establishes with 503 (negative disables)")
	fs.DurationVar(&c.overload.Interval, "overload-interval", time.Second, "how long delay must stay above -overload-target before shedding starts; also the Retry-After hint")
	fs.Float64Var(&c.rateLimit, "rate-limit", 0, "per-client mutation budget in requests/second, keyed by X-Client-ID or remote host (0 disables)")
	fs.Float64Var(&c.rateBurst, "rate-burst", 0, "per-client burst allowance on top of -rate-limit (0 = same as -rate-limit)")
	fs.Int64Var(&c.maxBodyBytes, "max-body-bytes", 1<<20, "request-body cap on mutation endpoints; oversized bodies answer 413")
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
	if c.kind != "waxman" && c.kind != "tier" {
		return nil, fmt.Errorf("unknown kind %q", c.kind)
	}
	if c.lease < 0 {
		c.lease = c.failoverTO / 2
	}
	if c.lease > 0 && c.failoverTO > 0 && c.lease >= c.failoverTO {
		return nil, fmt.Errorf("-lease (%s) must be shorter than -failover-timeout (%s): a standby must outwait the primary's lease before promoting", c.lease, c.failoverTO)
	}
	return c, nil
}

// meta is the marker a data directory written under c carries.
func (c *config) meta() dataMeta {
	return dataMeta{
		Kind: c.kind, Nodes: c.nodes, Seed: c.seed, CapacityKbps: c.capacity,
		Policy: c.policy, RequireBackup: !c.noBackup, Multiplex: !c.noMux,
	}
}

// journalOptions is the journal tuning, one journal or one per shard.
func (c *config) journalOptions() journal.Options {
	return journal.Options{
		FsyncEvery:         c.fsync,
		GroupCommit:        c.gcWait > 0 && c.fsync == 1,
		GroupCommitMaxWait: c.gcWait,
	}
}

// serverOptions is the part of the actor-loop tuning both planes share; each
// boot adds its own journal and logging hooks.
func (c *config) serverOptions() server.Options {
	return server.Options{
		QueueDepth:    c.queue,
		SnapshotEvery: c.snapEvery,
		Recover:       server.RecoverPolicy{Auto: c.autoRecover},
		Overload:      c.overload,
	}
}

// plane is a booted admission plane: the API it serves and how to drain it
// (command loops first, then journals) once the HTTP server has stopped.
type plane struct {
	handler http.Handler
	drain   func(context.Context) error
}

// run boots the daemon args describe and serves until ctx is done, then
// drains. listening, when non-nil, is told the bound address (tests listen
// on port 0).
func run(ctx context.Context, args []string, listening func(net.Addr)) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}
	pol, err := qos.PolicyByName(cfg.policy)
	if err != nil {
		return err
	}
	k := core.TopologyWaxman
	if cfg.kind == "tier" {
		k = core.TopologyTransitStub
	}
	sys, err := core.NewSystem(core.Options{Seed: cfg.seed, Kind: k, Nodes: cfg.nodes})
	if err != nil {
		return err
	}
	m := sys.Metrics()
	log.Printf("topology: %d nodes, %d links, diameter %d, avg hops %.2f (seed %d)",
		m.Nodes, m.Edges, m.Diameter, m.AvgHops, cfg.seed)
	mcfg := manager.Config{
		Capacity:                  qos.Kbps(cfg.capacity),
		Policy:                    pol,
		RequireBackup:             !cfg.noBackup,
		DisableBackupMultiplexing: cfg.noMux,
	}

	front := []server.HandlerOption{server.WithMaxBodyBytes(cfg.maxBodyBytes)}
	if cfg.rateLimit > 0 {
		front = append(front, server.WithRateLimit(cfg.rateLimit, cfg.rateBurst))
		log.Printf("rate limit: %.3g req/s per client (burst %.3g)", cfg.rateLimit, cfg.rateBurst)
	}
	if cfg.pprof {
		front = append(front, server.WithPprof())
		log.Printf("pprof: serving /debug/pprof/")
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
func bootSingle(cfg *config, g *topology.Graph, mcfg manager.Config, front []server.HandlerOption) (_ plane, err error) {
	opts := cfg.serverOptions()
	var mgr *manager.Manager
	var jnl *journal.Journal
	if cfg.dataDir != "" {
		if err := checkMeta(cfg.dataDir, singleMeta, shardedMeta, cfg.meta()); err != nil {
			return plane{}, err
		}
		jopt := cfg.journalOptions()
		if cfg.gcWait > 0 && cfg.fsync != 1 {
			// Group commit's whole contract is FsyncEvery:1 semantics; any
			// other policy already trades durability for throughput and has
			// nothing to batch.
			log.Printf("journal: -group-commit-max-wait ignored with -fsync %d (group commit requires -fsync 1)", cfg.fsync)
		}
		var rec *journal.Recovered
		jnl, rec, err = journal.Open(cfg.dataDir, jopt)
		if err != nil {
			return plane{}, fmt.Errorf("opening journal: %w", err)
		}
		defer func() {
			if err != nil {
				jnl.Close()
			}
		}()
		if jopt.GroupCommit {
			log.Printf("journal: group commit on (batch fsyncs under %s, per-event durability preserved)", cfg.gcWait)
		}
		mgr, err = server.Rebuild(g, mcfg, rec)
		if err != nil {
			return plane{}, fmt.Errorf("refusing to serve: journal replay of %s did not produce an audit-clean state: %w\n"+
				"(the on-disk history and the state machine disagree — restore the directory from a backup, "+
				"or move it aside to start from an empty state)", cfg.dataDir, err)
		}
		if rec.TornBytes > 0 {
			log.Printf("journal: discarded %d bytes of torn tail (mid-write crash)", rec.TornBytes)
		}
		log.Printf("journal: recovered %s to seq %d (snapshot at %d, %d events replayed, %d connections alive)",
			cfg.dataDir, rec.LastSeq, rec.SnapshotSeq, len(rec.Events), mgr.AliveCount())
		opts.Journal = jnl
		opts.Follower = cfg.replicaOf != ""
		opts.Term = rec.Term
	} else if mgr, err = manager.New(g, mcfg); err != nil {
		return plane{}, err
	}

	if cfg.forecastInterval > 0 {
		opts.Forecast = &forecast.Config{
			Interval:   cfg.forecastInterval,
			Predictive: cfg.forecastPredictive,
			OnPredict: func(saturated bool) {
				if saturated {
					log.Printf("FORECAST: model predicts saturation — pre-latching overload shedding")
				} else {
					log.Printf("forecast: predicted saturation cleared, admitting establishes again")
				}
			},
		}
		log.Printf("forecast: solving every %s (predictive=%v)", cfg.forecastInterval, cfg.forecastPredictive)
	}
	opts.OnDegrade = func(reason string) {
		if jnl != nil {
			log.Printf("DEGRADED: %s — refusing mutations, still serving reads; POST /v1/admin/recover to rebuild from the journal", reason)
		} else {
			log.Printf("DEGRADED: %s — refusing mutations, still serving reads; restart to recover", reason)
		}
	}
	opts.OnRecover = func(seq uint64) {
		log.Printf("RECOVERED: rebuilt from journal to seq %d, serving mutations again", seq)
	}
	opts.OnOverload = func(on bool) {
		if on {
			log.Printf("OVERLOADED: sustained actor-queue delay above %s — shedding new establishes with 503, terminations and reads stay live", cfg.overload.Target)
		} else {
			log.Printf("overload cleared: queue delay back under %s, admitting establishes again", cfg.overload.Target)
		}
	}
	// Replication node: built after the server (it wraps it), but the
	// server's semi-sync and stats hooks close over the variable — they
	// only fire once requests flow, well after the node exists.
	var node *replica.Node
	if jnl != nil {
		opts.WaitReplicated = func(ctx context.Context, seq uint64) error {
			if node == nil {
				return nil
			}
			return node.WaitReplicated(ctx, seq)
		}
		opts.ReplicaStats = func() *server.ReplicaStats {
			if node == nil {
				return nil
			}
			return node.StatsBlock()
		}
	}
	srv, err := server.NewFromManager(g, mgr, opts)
	if err != nil {
		return plane{}, err
	}

	handler := server.NewHandler(srv, front...)
	if jnl != nil {
		// Every journaled daemon ships its journal: the replication
		// endpoints are mounted whether or not a standby exists yet, so one
		// can join without a primary restart.
		node = replica.NewNode(srv, jnl, replica.Config{
			Self:            cfg.advertise,
			PrimaryURL:      cfg.replicaOf,
			FailoverTimeout: cfg.failoverTO,
			Lease:           cfg.lease,
			Logf:            log.Printf,
		})
		handler = node.FrontHandler(handler)
		if cfg.lease > 0 {
			log.Printf("replica: lease fencing on (a primary unpolled for %s refuses mutations)", cfg.lease)
		}
		if cfg.replicaOf != "" {
			log.Printf("replica: following %s (failover after %s without a primary, 0 = manual)", cfg.replicaOf, cfg.failoverTO)
			go func() {
				if err := node.Run(context.Background()); err != nil {
					log.Printf("replica: follower loop exited: %v", err)
				}
			}()
		}
	}
	return plane{handler: handler, drain: func(ctx context.Context) error {
		if node != nil {
			node.Stop() // halt the follower loop before the drain
		}
		if err := srv.Shutdown(ctx); err != nil {
			return fmt.Errorf("command-loop drain: %w", err)
		}
		log.Printf("drained %d commands, bye", srv.Processed())
		if jnl != nil {
			// The drain guarantees no more appends; Close syncs the final
			// segment.
			return jnl.Close()
		}
		return nil
	}}, nil
}

// bootSharded boots the partitioned admission plane: one manager + actor
// loop + journal per region shard behind the coordinator's global API.
func bootSharded(cfg *config, g *topology.Graph, mcfg manager.Config, front []server.HandlerOption) (plane, error) {
	if cfg.forecastInterval > 0 {
		log.Printf("forecast: -forecast-interval is ignored with -shards > 1 (the live model is per-plane)")
	}
	if cfg.dataDir != "" {
		meta := cfg.meta()
		meta.Shards = cfg.shards
		if err := checkMeta(cfg.dataDir, shardedMeta, singleMeta, meta); err != nil {
			return plane{}, err
		}
	}
	opts := cfg.serverOptions()
	opts.OnDegrade = func(reason string) {
		log.Printf("DEGRADED shard: %s — that shard refuses mutations (cross-shard transactions touching it abort), reads stay live", reason)
	}
	opts.OnRecover = func(seq uint64) {
		log.Printf("RECOVERED shard: rebuilt from its journal to seq %d", seq)
	}
	opts.OnOverload = func(on bool) {
		if on {
			log.Printf("OVERLOADED shard: refusing new establishes, link failures and prepares on that shard (503 + Retry-After) until its queue drains")
		} else {
			log.Printf("shard overload cleared, admitting establishes again")
		}
	}
	c, err := shard.New(g, shard.Options{
		Shards:  cfg.shards,
		Dir:     cfg.dataDir,
		Manager: mcfg,
		Server:  opts,
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
