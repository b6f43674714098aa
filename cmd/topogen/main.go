// Command topogen generates the network topologies used by the
// reproduction — Waxman random graphs and transit-stub ("tier")
// internetworks — and reports their structural metrics.
//
// Examples:
//
//	topogen -kind waxman -nodes 100 -seed 1 -format json -o net.json
//	topogen -kind tier -seed 2 -format dot -o net.dot
//	topogen -kind waxman -nodes 100 -seed 1 -metrics
package main

import (
	"flag"
	"fmt"
	"os"

	"drqos/internal/core"
	"drqos/internal/rng"
	"drqos/internal/topology"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "topogen:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		kind    = flag.String("kind", "waxman", "topology kind: waxman or tier")
		nodes   = flag.Int("nodes", 100, "node count (waxman only)")
		alpha   = flag.Float64("alpha", core.PaperAlpha, "Waxman alpha")
		beta    = flag.Float64("beta", core.PaperBeta, "Waxman beta")
		seed    = flag.Uint64("seed", 1, "generation seed")
		format  = flag.String("format", "json", "output format: json or dot")
		out     = flag.String("o", "", "output file (default stdout)")
		metrics = flag.Bool("metrics", false, "print structural metrics to stderr")
	)
	flag.Parse()

	src := rng.New(*seed)
	var g *topology.Graph
	var err error
	switch *kind {
	case "waxman":
		g, err = topology.Waxman(topology.WaxmanConfig{
			Nodes: *nodes, Alpha: *alpha, Beta: *beta,
		}, src)
	case "tier":
		g, err = topology.TransitStub(src)
	default:
		return fmt.Errorf("unknown kind %q", *kind)
	}
	if err != nil {
		return err
	}

	if *metrics {
		m := topology.ComputeMetrics(g)
		fmt.Fprintf(os.Stderr, "nodes=%d links=%d (directed %d) avgDegree=%.2f diameter=%d avgHops=%.2f connected=%v\n",
			m.Nodes, m.Edges, 2*m.Edges, m.AvgDegree, m.Diameter, m.AvgHops, m.Connected)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	switch *format {
	case "json":
		return topology.WriteJSON(w, g)
	case "dot":
		return topology.WriteDOT(w, g, *kind)
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
}
