// Quickstart: reproduce one data point of the paper in ~20 lines.
//
// Builds a paper-matched 100-node Waxman network, loads it with 2000
// dependable real-time connections with elastic QoS (100..500 Kb/s, Δ=50),
// runs the measured churn phase, and compares the simulated average
// reserved bandwidth with the Markov-chain estimate.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"drqos/internal/core"
)

func main() {
	sys, err := core.NewSystem(core.Options{
		Seed:         42,
		InitialConns: 2000,
		ChurnEvents:  1000,
		WarmupEvents: 200,
	})
	if err != nil {
		log.Fatal(err)
	}
	m := sys.Metrics()
	fmt.Printf("network: %d nodes, %d links, diameter %d\n", m.Nodes, m.Edges, m.Diameter)

	ev, err := sys.Evaluate()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("alive DR-connections:   %d (of %d offered)\n", ev.Sim.AliveAtEnd, ev.Sim.Offered)
	fmt.Printf("simulated avg bandwidth: %.1f Kbps\n", ev.Sim.AvgBandwidth)
	fmt.Printf("Markov-chain estimate:   %.1f Kbps (paper model)\n", ev.PaperModel.MeanBandwidth)
	fmt.Printf("                         %.1f Kbps (finite-lifetime refinement)\n", ev.RestartModel.MeanBandwidth)
	fmt.Printf("measured Pf=%.4f Ps=%.4f\n", ev.Sim.Model.Pf, ev.Sim.Model.Ps)
}
