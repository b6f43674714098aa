package layers

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"drqos/bench/script"
	"drqos/bench/spans"
	"drqos/internal/journal"
	"drqos/internal/manager"
	"drqos/internal/replica"
	"drqos/internal/server"
	"drqos/internal/shard"
	"drqos/internal/topology"
)

// The in-process stacks mirror cmd/drserverd's wiring under the flags
// bench/daemon passes; keep the two in step.
var journalOptions = journal.Options{FsyncEvery: 1, GroupCommit: true, GroupCommitMaxWait: 2 * time.Millisecond}

const (
	failoverTimeout = 5 * time.Second
	lease           = failoverTimeout / 2
)

// stack is one in-process deployment: what a level's target enters, the
// HTTP handler over it, and how to take it down.
type stack struct {
	srv     *server.Server     // single plane
	coord   *shard.Coordinator // sharded
	handler http.Handler
	// streamBytes counts what the standby pulled off the replication stream.
	streamBytes atomic.Int64
	closers     []func() error
}

func (s *stack) close() error {
	var first error
	for i := len(s.closers) - 1; i >= 0; i-- {
		if err := s.closers[i](); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// hooks is how a stack's inner layers report spans: level and cursor place
// them under the replayer's operation in flight.
type hooks struct {
	rec   *spans.Recorder
	cur   *cursor
	level string
}

// wrap spans call under the operation in flight. Outside a recorded
// operation (population building, an untraced replay) it only calls.
func (h hooks) wrap(name string, call func() error) error {
	if h.cur.span.Load() == 0 {
		return call()
	}
	id := h.cur.child(h.rec, h.level, name)
	err := call()
	h.rec.End(id)
	return err
}

// serve exposes h on a loopback listener until the returned stop runs.
func serve(h http.Handler) (url string, stop func() error, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	return "http://" + ln.Addr().String(), func() error {
		cerr := srv.Close()
		if serr := <-done; !errors.Is(serr, http.ErrServerClosed) {
			return serr
		}
		return cerr
	}, nil
}

// newShardStack builds the sharded plane in memory, as drserverd -shards N
// does, with a span around every 2PC phase call.
func newShardStack(g *topology.Graph, w script.Workload, h hooks) (*stack, error) {
	c, err := shard.New(g, shard.Options{
		Shards:  w.Shards,
		Manager: script.ManagerConfig(),
		Invoke: func(ctx context.Context, _ int, phase string, call func(context.Context) error) error {
			return h.wrap("2pc."+phase, func() error { return call(ctx) })
		},
	})
	if err != nil {
		return nil, err
	}
	s := &stack{coord: c, handler: shard.NewHandler(c)}
	s.closers = append(s.closers, func() error { return c.Shutdown(context.Background()) })
	return s, nil
}

// newPlaneStack builds a single plane around m: in memory, journaled, or
// journaled with a warm standby following it over loopback HTTP, as the
// workload says. The replication ack wait is spanned through the server's
// own hook.
func newPlaneStack(g *topology.Graph, m *manager.Manager, w script.Workload, dir string, h hooks) (_ *stack, err error) {
	s := &stack{}
	defer func() {
		if err != nil {
			_ = s.close() // the construction error is the one to report
		}
	}()
	opts := server.Options{}
	if w.Durable {
		jnl, _, err := journal.Open(filepath.Join(dir, "primary"), journalOptions)
		if err != nil {
			return nil, err
		}
		s.closers = append(s.closers, jnl.Close)
		opts.Journal = jnl
	}
	var node *replica.Node
	if w.Replica {
		opts.WaitReplicated = func(ctx context.Context, seq uint64) error {
			return h.wrap("replica.ack_wait", func() error { return node.WaitReplicated(ctx, seq) })
		}
		opts.ReplicaStats = func() *server.ReplicaStats { return node.StatsBlock() }
	}
	if s.srv, err = server.NewFromManager(g, m, opts); err != nil {
		return nil, err
	}
	s.closers = append(s.closers, func() error { return s.srv.Shutdown(context.Background()) })
	s.handler = server.NewHandler(s.srv)
	if !w.Replica {
		return s, nil
	}

	node = replica.NewNode(s.srv, opts.Journal, replica.Config{FailoverTimeout: failoverTimeout, Lease: lease})
	s.handler = node.FrontHandler(s.handler)
	url, stop, err := serve(s.handler)
	if err != nil {
		return nil, err
	}
	s.closers = append(s.closers, stop)
	if err := s.follow(g, url, dir); err != nil {
		return nil, err
	}
	// Semi-sync acks only start once the standby polls; wait for the first.
	for deadline := time.Now().Add(10 * time.Second); node.StatsBlock().Followers == 0; {
		if time.Now().After(deadline) {
			return nil, errors.New("in-process standby never polled the primary")
		}
		time.Sleep(time.Millisecond)
	}
	return s, nil
}

// follow starts the in-process warm standby of the primary at url.
func (s *stack) follow(g *topology.Graph, url, dir string) error {
	m, err := manager.New(g, script.ManagerConfig())
	if err != nil {
		return err
	}
	jnl, _, err := journal.Open(filepath.Join(dir, "standby"), journalOptions)
	if err != nil {
		return err
	}
	s.closers = append(s.closers, jnl.Close)
	var node *replica.Node
	srv, err := server.NewFromManager(g, m, server.Options{
		Journal:      jnl,
		Follower:     true,
		ReplicaStats: func() *server.ReplicaStats { return node.StatsBlock() },
	})
	if err != nil {
		return err
	}
	s.closers = append(s.closers, func() error { return srv.Shutdown(context.Background()) })
	node = replica.NewNode(srv, jnl, replica.Config{
		PrimaryURL:      url,
		FailoverTimeout: failoverTimeout,
		Lease:           lease,
		Transport:       streamCounter{&s.streamBytes},
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- node.Run(ctx) }()
	s.closers = append(s.closers, func() error {
		cancel()
		if err := <-done; err != nil && !errors.Is(err, context.Canceled) {
			return fmt.Errorf("standby loop: %w", err)
		}
		return nil
	})
	return nil
}

// streamCounter is the standby's HTTP transport; it counts the bytes of
// every replication stream response.
type streamCounter struct{ n *atomic.Int64 }

func (c streamCounter) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err == nil && strings.HasSuffix(r.URL.Path, "/v1/replica/stream") {
		resp.Body = countingBody{resp.Body, c.n}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}
