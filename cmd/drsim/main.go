// Command drsim runs one detailed simulation of dependable real-time
// connections with elastic QoS and prints the measured metrics and model
// parameters. With -trace DIR it journals every event it applies into DIR,
// a single-plane data directory with a snapshot where measurement starts:
// drtrace -in DIR summarises it and measures and solves the paper's chain
// from the measured tail (§3.3's simulate → measure → solve), and drserverd
// -data-dir DIR with the same topology and admission flags boots to the
// run's final state.
//
// Example — one Figure 2 data point, then its model from the journal:
//
//	drsim -nodes 100 -conns 3000 -churn 2000 -warmup 400 -seed 5 -trace run5
//	drtrace -in run5
package main

import (
	"flag"
	"fmt"
	"os"

	"drqos/internal/core"
	"drqos/internal/qos"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "drsim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		kind     = flag.String("kind", "waxman", "topology: waxman or tier")
		nodes    = flag.Int("nodes", 100, "node count (waxman)")
		seed     = flag.Uint64("seed", 1, "seed for topology and workload")
		conns    = flag.Int("conns", 3000, "initial DR-connection requests")
		churn    = flag.Int("churn", 2000, "measured churn events")
		warmup   = flag.Int("warmup", 400, "warmup events before measurement")
		lambda   = flag.Float64("lambda", 0.001, "arrival rate")
		mu       = flag.Float64("mu", 0.001, "termination rate")
		gamma    = flag.Float64("gamma", 0, "link failure rate")
		repair   = flag.Float64("repair", 0.01, "link repair rate (with -gamma)")
		capacity = flag.Int64("capacity", int64(core.PaperCapacity), "link capacity per direction (Kbps)")
		minBW    = flag.Int64("min", 100, "elastic minimum (Kbps)")
		maxBW    = flag.Int64("max", 500, "elastic maximum (Kbps)")
		inc      = flag.Int64("inc", 50, "elastic increment (Kbps)")
		policy   = flag.String("policy", "coefficient", "adaptation policy: coefficient or max-utility")
		noBackup = flag.Bool("no-require-backup", false, "accept unprotectable connections")
		noMux    = flag.Bool("no-multiplex", false, "disable backup multiplexing")
		traceDir = flag.String("trace", "", "journal every event into this fresh data directory, snapshotted where measurement starts (read by drtrace and drserverd -data-dir)")
	)
	flag.Parse()

	pol, err := qos.PolicyByName(*policy)
	if err != nil {
		return err
	}
	k := core.TopologyWaxman
	if *kind == "tier" {
		k = core.TopologyTransitStub
	} else if *kind != "waxman" {
		return fmt.Errorf("unknown kind %q", *kind)
	}
	opts := core.Options{
		Seed: *seed,
		Kind: k, Nodes: *nodes,
		Capacity: qos.Kbps(*capacity),
		Spec: qos.ElasticSpec{
			Min: qos.Kbps(*minBW), Max: qos.Kbps(*maxBW),
			Increment: qos.Kbps(*inc), Utility: 1,
		},
		Lambda: *lambda, Mu: *mu, Gamma: *gamma, RepairRate: *repair,
		Policy:                    pol,
		NoRequireBackup:           *noBackup,
		DisableBackupMultiplexing: *noMux,
		InitialConns:              *conns,
		ChurnEvents:               *churn,
		WarmupEvents:              *warmup,
	}
	if *traceDir != "" {
		// The marker drserverd writes under the same flags.
		jnl, err := core.OpenTrace(*traceDir, core.DataMeta{
			Kind: *kind, Nodes: *nodes, Seed: *seed, CapacityKbps: *capacity,
			Policy: *policy, RequireBackup: !*noBackup, Multiplex: !*noMux,
		})
		if err != nil {
			return err
		}
		defer jnl.Close() // error paths; the success path checks Close below
		opts.Trace = jnl
	}
	sys, err := core.NewSystem(opts)
	if err != nil {
		return err
	}
	m := sys.Metrics()
	fmt.Printf("topology: %d nodes, %d links (%d directed), diameter %d, avg hops %.2f\n",
		m.Nodes, m.Edges, 2*m.Edges, m.Diameter, m.AvgHops)

	ev, err := sys.Evaluate()
	if err != nil {
		return err
	}
	res, md := ev.Sim, ev.Sim.Model
	fmt.Printf("workload: offered=%d established=%d rejected=%d terminated=%d dropped=%d failures=%d\n",
		res.Offered, res.Established, res.Rejected, res.Terminated, res.Dropped, res.Failures)
	if md == nil {
		fmt.Printf("population: alive=%d, avg primary hops %.2f\n", res.AliveAtEnd, res.AvgHops)
	} else {
		fmt.Printf("population: alive=%d (avg %.1f), avg primary hops %.2f\n", res.AliveAtEnd, md.AvgAlive, res.AvgHops)
	}
	fmt.Printf("average bandwidth: sim=%.1f ± %.1f Kbps (final %.1f)\n", res.AvgBandwidth, res.AvgBandwidthCI95, res.FinalAvgBandwidth)
	if md == nil {
		fmt.Printf("no model: %s\n", res.NoModel)
	} else {
		fmt.Printf("analytic: paper-model=%.1f restart-model=%.1f general-model=%.1f ideal=%.0f\n",
			ev.PaperModel.MeanBandwidth, ev.RestartModel.MeanBandwidth,
			ev.GeneralModel.MeanBandwidth, ev.IdealBandwidth)
		fmt.Printf("measured: Pf=%.4f Ps=%.4f effλ=%.6f effμ=%.6f effγ=%.6f\n", md.Pf, md.Ps, md.Lambda, md.Mu, md.Gamma)
		fmt.Printf("discarded jump mass: A=%.3f B=%.3f T=%.3f\n", md.DiscardedA, md.DiscardedB, md.DiscardedT)
	}
	fmt.Printf("state occupancy (sim): %s\n", fmtDist(res.EmpiricalPi))
	if md != nil {
		fmt.Printf("state occupancy (markov): %s\n", fmtDist(ev.RestartModel.Pi))
	}
	if opts.Trace != nil {
		if err := opts.Trace.Close(); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		fmt.Printf("trace: %d events journaled to %s\n", opts.Trace.LastSeq(), *traceDir)
	}
	return nil
}

func fmtDist(pi []float64) string {
	out := ""
	for i, p := range pi {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%.3f", p)
	}
	return out
}
