package server

import (
	"context"

	"drqos/internal/journal"
	"drqos/internal/manager"
	"drqos/internal/topology"
)

// New builds a Server over a fresh manager for graph g and starts its
// command loop.
func New(g *topology.Graph, cfg manager.Config, opt Options) (*Server, error) {
	mgr, err := manager.New(g, cfg)
	if err != nil {
		return nil, err
	}
	return NewFromManager(g, mgr, opt)
}

// Submit exposes the raw command-loop enqueue (freeing lane) to tests so
// they can wedge the loop and exercise queue-full, shedding and drain
// behavior. The command carries ctx, so the loop sheds it if ctx dies
// before execution.
func (s *Server) Submit(ctx context.Context, fn func(*manager.Manager)) error {
	return s.submit(ctx, laneFreeing, false, fn)
}

// SubmitConsuming is Submit for the capacity-consuming lane, so tests can
// assert strict freeing-first drain ordering.
func (s *Server) SubmitConsuming(ctx context.Context, fn func(*manager.Manager)) error {
	return s.submit(ctx, laneConsuming, false, fn)
}

// AppendIndented exposes WriteJSON's re-indenter to the fuzz target, which
// holds it to json.Indent.
var AppendIndented = appendIndented

// ForceOverloaded latches or clears the overload detector directly, for
// readiness-probe and HTTP shedding tests.
func (s *Server) ForceOverloaded(v bool) { s.detector.ForceForTesting(v) }

// Establishes exposes the executed-establish counter so shedding tests can
// assert abandoned commands never ran.
func (s *Server) Establishes() int64 { return s.establishes.Load() }

// PublishEpoch publishes inside the loop, so a test can measure a publish
// by itself.
func (s *Server) PublishEpoch(ctx context.Context) error {
	return s.do(ctx, false, func(m *manager.Manager) error {
		s.publishEpoch(m)
		return nil
	})
}

// AbortEvents is the journaled trace of aborting txn (abortEvents).
func (t *TxnTable) AbortEvents(txn uint64) []journal.Event { return t.abortEvents(txn) }
