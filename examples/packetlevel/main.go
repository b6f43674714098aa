// Packetlevel: connect the two phases of a real-time channel (§2.1.1) —
// off-line establishment (what this repository's manager does with elastic
// bandwidth) and run-time message scheduling (what each link does with the
// reserved bandwidth).
//
// We load a network with elastic DR-connections, pick the busiest directed
// link, convert every channel's CURRENT elastic grant into a (σ,ρ) flow
// with a 50 ms local delay bound, run the EDF admission test, and then
// hammer the link with each flow's worst-case packet trace to confirm that
// zero deadlines are missed. The point: the Kb/s the elastic manager hands
// out are not abstract tokens — they are exactly the currency the link
// scheduler needs to give hard per-packet guarantees.
//
// Run with: go run ./examples/packetlevel
package main

import (
	"fmt"
	"log"

	"drqos/internal/core"
	"drqos/internal/manager"
	"drqos/internal/qos"
	"drqos/internal/rng"
	"drqos/internal/sched"
	"drqos/internal/topology"
)

func main() {
	g, err := topology.Waxman(topology.WaxmanConfig{
		Nodes: 100, Alpha: core.PaperAlpha, Beta: core.PaperBeta, EnsureConnected: true,
	}, rng.New(21))
	if err != nil {
		log.Fatal(err)
	}
	mgr, err := manager.New(g, manager.Config{
		Capacity:      core.PaperCapacity,
		RequireBackup: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	src := rng.New(22)
	for i := 0; i < 2500; i++ {
		a := topology.NodeID(src.Intn(g.NumNodes()))
		b := topology.NodeID(src.Intn(g.NumNodes() - 1))
		if b >= a {
			b++
		}
		_, _ = mgr.Establish(a, b, qos.DefaultSpec())
	}
	fmt.Printf("loaded: %d DR-connections, network-wide avg %.0f Kbps\n",
		mgr.AliveCount(), mgr.AverageBandwidth())

	// Find the busiest directed link.
	var busiest topology.DirLinkID
	var bestSum qos.Kbps
	for d := 0; d < g.NumDirLinks(); d++ {
		if s := mgr.Network().GrantSum(topology.DirLinkID(d)); s > bestSum {
			bestSum, busiest = s, topology.DirLinkID(d)
		}
	}
	primaries := mgr.Network().PrimariesOn(busiest)
	fmt.Printf("busiest directed link %d: %v reserved across %d channels\n",
		busiest, bestSum, len(primaries))

	// Convert each channel's current grant into a packet-level flow:
	// 12 Kb max packets (≈1500 B) and a two-packet burst allowance. The
	// link then computes the TIGHTEST common local delay bound it can
	// promise at its current (fully booked) load — this is the §2
	// transformation between bandwidth and delay forms of performance QoS.
	const maxPacket = 12.0
	mkFlows := func(deadline float64) []sched.FlowSpec {
		flows := make([]sched.FlowSpec, 0, len(primaries))
		for _, r := range primaries {
			flows = append(flows, sched.FlowSpec{
				Burst:     2 * maxPacket,
				Rate:      float64(r.Grant),
				MaxPacket: maxPacket,
				Deadline:  deadline,
			})
		}
		return flows
	}
	lo, hi := 0.001, 1.0
	if err := sched.CanAdmit(mkFlows(hi), float64(core.PaperCapacity)); err != nil {
		log.Fatalf("even a 1s bound is infeasible: %v", err)
	}
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		if sched.CanAdmit(mkFlows(mid), float64(core.PaperCapacity)) == nil {
			hi = mid
		} else {
			lo = mid
		}
	}
	deadline := hi
	flows := mkFlows(deadline)
	fmt.Printf("EDF admission: %d flows totalling %v fit a %v link with a %.1f ms local bound\n",
		len(flows), bestSum, core.PaperCapacity, deadline*1000)

	trace, err := sched.GreedyTrace(flows, 10)
	if err != nil {
		log.Fatal(err)
	}
	res, err := sched.Simulate(trace, float64(core.PaperCapacity), 10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("worst-case packet simulation: %d packets, %d deadline misses, "+
		"max lateness %.3f ms, utilization %.1f%%\n",
		res.Packets, res.Misses, res.MaxLateness*1000, 100*res.Utilization)
	if res.Misses == 0 {
		fmt.Println("every reserved Kb/s translated into met per-packet deadlines —")
		fmt.Println("the elastic grants compose into hard run-time guarantees.")
	}
}
