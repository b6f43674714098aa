package chaos

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"time"

	"drqos/internal/forecast"
	"drqos/internal/journal"
	"drqos/internal/overload"
	"drqos/internal/replica"
	"drqos/internal/server"
	"drqos/internal/shard"
	"drqos/internal/topology"
)

// The planes' fixed shape. One value each: every episode of a plane boots
// the same deployment, so a row differs from its neighbours only in script
// and faults.
const (
	lease           = 100 * time.Millisecond // Pair: the primary's acknowledgment lease
	failoverTimeout = 300 * time.Millisecond // Pair: the standby's detection window (> lease)
	syncTimeout     = 300 * time.Millisecond // Pair: one ack's wait for the standby; fences under a lease
	prepareTimeout  = 100 * time.Millisecond // Sharded: one 2PC phase call
	shards          = 4                      // Sharded: the tier topology's region count

	// Pressure: 1ms of service per command against 2ms caller deadlines
	// drowns the consuming lane within a few ops and keeps episodes quick.
	pressureExecDelay = time.Millisecond
	pressureDeadline  = 2 * time.Millisecond
)

// journalOptions is how every journaled node opens its directory: the
// daemon's -fsync 1 group commit.
var journalOptions = journal.Options{FsyncEvery: 1, GroupCommit: true}

// node is one server of the plane and, on journaled planes, its directory.
type node struct {
	idx  int    // position in world.nodes
	name string // journal sub-directory and netchaos address (names[idx], or shard-N)
	dir  string // "" in memory
	g    *topology.Graph
	srv  *server.Server
	rep  *replica.Node // Pair only, like http
	http *httptest.Server
	down atomic.Bool
}

// names are the server planes' nodes by index: journal sub-directory and
// netchaos address. A Pair's node follows — and is partitioned from — the
// other one.
var names = [2]string{"primary", "standby"}

// boot brings node i up, first start or restart, from its directory
// (journaled planes) through server.Open, or replica.Open on the Pair;
// follow is the URL of the primary to stream from ("" boots a primary). On
// the Sharded plane it boots the coordinator, which does the same per
// shard, and the nodes become views of its shards.
func (w *world) boot(i int, follow string) (err error) {
	if w.ep.Plane == Sharded {
		w.coord, err = shard.New(w.g, shard.Options{
			Shards: shards, Dir: w.dir, Manager: w.mcfg, Journal: journalOptions,
			Server:         server.Options{SnapshotEvery: w.ep.SnapshotEvery},
			PrepareTimeout: prepareTimeout, SuspectWindow: 4 * prepareTimeout,
			Invoke: func(ctx context.Context, s int, _ string, call func(context.Context) error) error {
				return w.net.Do(ctx, "coord", fmt.Sprintf("shard-%d", s), call)
			},
		})
		if err != nil {
			return fmt.Errorf("booting the sharded plane: %w", err)
		}
		w.mu.Lock()
		defer w.mu.Unlock()
		w.nodes = w.nodes[:0]
		for s := 0; s < shards; s++ {
			w.nodes = append(w.nodes, &node{
				name: fmt.Sprintf("shard-%d", s), dir: filepath.Join(w.dir, fmt.Sprintf("shard-%03d", s)),
				g: w.coord.Plan().Subs[s].Graph, srv: w.coord.Shard(s),
			})
		}
		return nil
	}

	n := &node{idx: i, name: names[i], g: w.g}
	opt := server.Options{
		// Shallow on purpose: enqueue contention and submit-time
		// cancellation are part of what a burst must exercise.
		QueueDepth:    16,
		SnapshotEvery: w.ep.SnapshotEvery,
	}
	if w.pressure {
		opt.ExecDelay = pressureExecDelay
		// Tight, so any real backlog latches the detector.
		opt.Overload = overload.DetectorConfig{Target: time.Millisecond, Interval: 5 * time.Millisecond}
		// The forecaster rides along with a fast solve cadence: its reads
		// must stay live while the consuming lane drowns, and its solve
		// loop must never wedge the actor loop.
		opt.Forecast = &forecast.Config{Interval: 10 * time.Millisecond, MinEvents: 10}
	}
	if w.ep.Plane != Single {
		n.dir = filepath.Join(w.dir, n.name)
	}
	var rec *journal.Recovered
	if w.ep.Plane == Pair {
		// All protocol traffic is follower-initiated, so every partition
		// shape is a rule on the follower→primary edge.
		cfg := replica.Config{
			PrimaryURL: follow, PollWait: 20 * time.Millisecond,
			Lease: lease, SyncTimeout: syncTimeout,
			Transport: w.net.Transport(n.name, names[1-i], nil),
		}
		if i == len(w.nodes) {
			// A first boot: the standby may seize the primacy. A rejoining
			// ex-primary must follow, whatever it sees.
			cfg.FailoverTimeout = failoverTimeout
		}
		var api http.Handler
		if n.rep, api, rec, err = replica.Open(w.g, w.mcfg, n.dir, journalOptions, opt, cfg); err == nil {
			n.srv, n.http = n.rep.Server(), httptest.NewServer(api)
		}
	} else {
		n.srv, rec, err = server.Open(w.g, w.mcfg, n.dir, journalOptions, opt)
	}
	if err == nil {
		if err = w.recovered(n, rec); err != nil {
			n.halt(false)
		}
	}
	if err != nil {
		return fmt.Errorf("booting %s: %w", n.name, err)
	}
	if follow != "" {
		go n.rep.Run(context.Background()) // until it promotes, or halt stops it
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if i == len(w.nodes) {
		w.nodes = append(w.nodes, n)
	} else {
		w.nodes[i] = n
	}
	return nil
}

// fingerprint asks the node's loop for its state digest ("" once it is down).
func (n *node) fingerprint() string {
	fp, _ := n.srv.StateFingerprint(context.Background())
	return fp
}

// primary returns the node clients talk to and the reign it acks under.
func (w *world) primary() (*node, int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nodes[w.acting], w.reign
}

// other returns the Pair's node that is not the acting primary.
func (w *world) other() *node {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nodes[1-w.acting]
}

// halt takes the node down. abandon is the kill -9 way: connections
// severed, accepted commands drained into a journal that is then left
// without a final sync. Otherwise it is an orderly shutdown.
func (n *node) halt(abandon bool) {
	n.down.Store(true)
	if n.http != nil {
		// Stopped first: the node's streams end, and the server's Close
		// does not wait on them.
		n.rep.Stop()
		if abandon {
			n.http.CloseClientConnections()
		}
		n.http.Close()
	}
	_ = n.srv.Shutdown(context.Background())
	if jnl := n.srv.Journal(); jnl != nil && abandon {
		_ = jnl.Abandon()
	} else if jnl != nil {
		_ = jnl.Close()
	}
}

// stop shuts down whatever is still up at the end of the episode.
func (w *world) stop() {
	if w.coord != nil {
		_ = w.coord.Shutdown(context.Background())
		return
	}
	for _, n := range w.nodes {
		if !n.down.Load() {
			n.halt(false)
		}
	}
}

// activeSegment resolves dir's newest wal segment (zero-padded names sort
// lexically) and the end of its records. Past that end the segment holds
// preallocated zeros, so the file's size says nothing about what it logged.
func activeSegment(dir string) (string, int64, error) {
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		return "", 0, fmt.Errorf("no wal segment in %s (%v)", dir, err)
	}
	end, err := journal.RecordsEnd(segs[len(segs)-1])
	if err != nil {
		return "", 0, err
	}
	return segs[len(segs)-1], end, nil
}
