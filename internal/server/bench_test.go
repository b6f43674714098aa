package server_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"drqos/internal/core"
	"drqos/internal/manager"
	"drqos/internal/qos"
	"drqos/internal/rng"
	"drqos/internal/server"
	"drqos/internal/topology"
)

// BenchmarkServerEstablish times an establish+terminate pair through the
// command loop of an in-memory server — admit, apply, publish, answer — over
// a standing population the pair does not touch, on the repository
// benchmark's network (bench/script: seed 1, 100 nodes, daemon defaults).
// What an op costs beyond the manager's own work should not grow with pop.
func BenchmarkServerEstablish(b *testing.B) {
	sys, err := core.NewSystem(core.Options{Seed: 1, Kind: core.TopologyWaxman, Nodes: 100})
	if err != nil {
		b.Fatal(err)
	}
	g, ctx := sys.Graph(), context.Background()
	for _, pop := range []int{100, 2000} {
		b.Run(fmt.Sprintf("pop=%d", pop), func(b *testing.B) {
			s, err := server.New(g, manager.Config{Capacity: core.PaperCapacity, RequireBackup: true}, server.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Shutdown(ctx)
			src := rng.New(1)
			establish := func() (*manager.ArrivalReport, error) {
				a, z := src.Intn(g.NumNodes()), src.Intn(g.NumNodes())
				if a == z {
					z = (z + 1) % g.NumNodes()
				}
				rep, err := s.Establish(ctx, topology.NodeID(a), topology.NodeID(z), qos.DefaultSpec())
				if err != nil && !errors.Is(err, manager.ErrRejected) {
					b.Fatal(err)
				}
				return rep, err
			}
			for alive := 0; alive < pop; {
				if _, err := establish(); err == nil {
					alive++
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := establish()
				if err != nil {
					continue // a rejection is an op too
				}
				if _, err := s.Terminate(ctx, rep.Conn.ID); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
