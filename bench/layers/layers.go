package layers

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"drqos/bench/load"
	"drqos/bench/script"
	"drqos/bench/spans"
	"drqos/internal/journal"
	"drqos/internal/manager"
	"drqos/internal/qos"
	"drqos/internal/routing"
	"drqos/internal/topology"
)

// Result maps each per-layer metric a replay measured to its value and to
// the number of samples behind it.
type Result struct {
	Values map[string]float64
	Counts map[string]int
}

func (r *Result) set(name string, v float64, n int) {
	r.Values[name] = v
	r.Counts[name] = n
}

func (r *Result) p50us(name string, d []time.Duration) {
	r.set(name, float64(load.Quantile(d, 0.5))/float64(time.Microsecond), len(d))
}

func values(m map[int]time.Duration) []time.Duration {
	out := make([]time.Duration, 0, len(m))
	for _, d := range m {
		out = append(out, d)
	}
	return out
}

// Replay drives the first n operations of sc through every entry point the
// workload's deployment has, recording into rec (not nil), and derives the
// per-layer metrics the replays can measure. dir is scratch space for
// journals.
func Replay(p *script.Plane, sc *script.Script, n int, rec *spans.Recorder, dir string) (*Result, error) {
	ops := interleave(sc.Run, n)
	res := &Result{Values: map[string]float64{}, Counts: map[string]int{}}
	ctx := context.Background()
	var err error
	if p.Plan != nil {
		err = replaySharded(ctx, p, sc, ops, rec, res)
	} else {
		err = replayPlane(ctx, p, sc, ops, rec, dir, res)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// replayPlane covers a single plane: routing → manager → journal → server
// (with the replication wait as a true child span) → HTTP handler.
func replayPlane(ctx context.Context, p *script.Plane, sc *script.Script, ops []script.Op, rec *spans.Recorder, dir string, res *Result) error {
	g, w, cfg := p.Graph, p.W, script.ManagerConfig()
	res.p50us("routing.route_us_p50", routeTimes(g, ops))

	// Manager: build the standing population once and keep its export, so
	// the deeper stacks start from the identical state without paying for
	// the population again.
	m, err := manager.New(g, cfg)
	if err != nil {
		return err
	}
	mt := &managerTarget{m: m}
	mr := newReplayer(mt, "manager", rec)
	if err := mr.populate(ctx, sc.Warm, w.Standing); err != nil {
		return err
	}
	standing, owned := m.ExportState(), append([]int64(nil), mr.ledger...)
	mt.changes, mt.events = 0, 0
	if err := mr.run(ctx, ops); err != nil {
		return err
	}
	res.set("manager.level_changes_per_op", float64(mt.changes)/float64(max(mt.events, 1)), mt.events)
	exportTimes := make([]time.Duration, 5)
	for i := range exportTimes {
		t0 := time.Now()
		st := m.ExportState()
		exportTimes[i] = time.Since(t0)
		res.set("manager.state_bytes", float64(len(st.MarshalBinary())), 1)
	}
	res.p50us("manager.exportstate_us", exportTimes)
	allocs, bytes, n := establishAllocs(m, ops)
	res.set("manager.allocs_per_establish", allocs, n)
	res.set("manager.bytes_per_establish", bytes, n)

	if w.Durable {
		if err := journalLevel(ctx, ops, rec, filepath.Join(dir, "journal"), res); err != nil {
			return err
		}
	}

	// start builds a fresh stack at the standing population and a replayer
	// over it. A replicated pair must see the population through its
	// journal stream, so there it is replayed instead of restored.
	start := func(level string, rec *spans.Recorder, over func(*stack) (target, error)) (*stack, *replayer, error) {
		build := func() (*manager.Manager, error) { return manager.Restore(g, cfg, standing) }
		if w.Replica {
			build = func() (*manager.Manager, error) { return manager.New(g, cfg) }
		}
		sm, err := build()
		if err != nil {
			return nil, nil, err
		}
		cur := &cursor{}
		st, err := newPlaneStack(g, sm, w, filepath.Join(dir, level), hooks{rec, cur, level})
		if err != nil {
			return nil, nil, err
		}
		t, err := over(st)
		if err != nil {
			_ = st.close() // reporting the dial error
			return nil, nil, err
		}
		r := newReplayer(t, level, rec)
		r.cur = cur
		if w.Replica {
			err = r.populate(ctx, sc.Warm, w.Standing)
		} else {
			r.ledger = append([]int64(nil), owned...)
		}
		if err != nil {
			_ = st.close() // reporting the populate error
			return nil, nil, err
		}
		return st, r, nil
	}

	st, sr, err := start("server", rec, func(st *stack) (target, error) { return serverTarget{st.srv}, nil })
	if err != nil {
		return err
	}
	streamed := st.streamBytes.Load()
	err = sr.run(ctx, ops)
	res.set("replica.stream_bytes_per_op", float64(st.streamBytes.Load()-streamed)/float64(len(ops)), len(ops))
	if cerr := st.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	overHTTP := func(st *stack) (target, error) { return dialStack(st, false) }
	if err := httpLevel(ctx, ops, rec, res, func(rec *spans.Recorder) (*stack, *replayer, error) {
		return start("http", rec, overHTTP)
	}); err != nil {
		return err
	}

	all := rec.Spans()
	for _, k := range []script.Kind{script.Establish, script.Terminate, script.Fail, script.Repair} {
		name := map[script.Kind]string{script.Fail: "faillink", script.Repair: "repairlink"}[k]
		if name == "" {
			name = k.String()
		}
		res.p50us("manager."+name+"_us_p50", values(spans.ByOp(all, "manager", k.String())))
	}
	est := script.Establish.String()
	serverEst := spans.ByOp(all, "server", est)
	ack := restrict(spans.ByOp(all, "server", "replica.ack_wait"), serverEst)
	res.p50us("replica.ack_wait_us_p50", values(ack))
	// The ack wait is a child span of the server's establish, so the span's
	// self time already excludes it; the manager and the journal were entered
	// in replays of their own and are subtracted operation by operation.
	res.p50us("server.loop_self_us_p50", spans.LayerSelf(spans.SelfByOp(all, "server", est),
		spans.ByOp(all, "manager", est), spans.ByOp(all, "journal", "append"), spans.ByOp(all, "journal", "wait_durable")))
	res.p50us("http.handler_self_us_p50", spans.LayerSelf(spans.ByOp(all, "http", est), serverEst))
	return nil
}

// restrict keeps the entries of m whose operation is in ops.
func restrict(m, ops map[int]time.Duration) map[int]time.Duration {
	out := map[int]time.Duration{}
	for op, d := range m {
		if _, ok := ops[op]; ok {
			out[op] = d
		}
	}
	return out
}

// replaySharded covers the sharded plane: coordinator (2PC phase calls as
// true child spans) → HTTP handler. The per-shard managers and actor loops
// are built inside the coordinator and have no entry point of their own.
func replaySharded(ctx context.Context, p *script.Plane, sc *script.Script, ops []script.Op, rec *spans.Recorder, res *Result) error {
	start := func(level string, rec *spans.Recorder, over func(*stack) (target, error)) (*stack, *replayer, error) {
		cur := &cursor{}
		st, err := newShardStack(p.Graph, p.W, hooks{rec, cur, level})
		if err != nil {
			return nil, nil, err
		}
		t, err := over(st)
		if err == nil {
			r := newReplayer(t, level, rec)
			r.cur = cur
			if err = r.populate(ctx, sc.Warm, p.W.Standing); err == nil {
				return st, r, nil
			}
		}
		_ = st.close() // reporting the dial or populate error
		return nil, nil, err
	}

	st, r, err := start("shard", rec, func(st *stack) (target, error) { return shardTarget{st.coord}, nil })
	if err != nil {
		return err
	}
	err = r.run(ctx, ops)
	if cerr := st.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	overHTTP := func(st *stack) (target, error) { return dialStack(st, true) }
	if err := httpLevel(ctx, ops, rec, res, func(rec *spans.Recorder) (*stack, *replayer, error) {
		return start("http", rec, overHTTP)
	}); err != nil {
		return err
	}

	all := rec.Spans()
	shardEst := spans.ByOp(all, "shard", script.Establish.String())
	var intra, cross []time.Duration
	for i, d := range shardEst {
		if p.Plan.NodeShard[ops[i].Src] == p.Plan.NodeShard[ops[i].Dst] {
			intra = append(intra, d)
		} else {
			cross = append(cross, d)
		}
	}
	res.p50us("shard.intra_establish_us_p50", intra)
	res.p50us("shard.cross_establish_us_p50", cross)
	res.p50us("http.handler_self_us_p50", spans.LayerSelf(spans.ByOp(all, "http", script.Establish.String()), shardEst))
	return nil
}

// dialStack serves the stack's handler on loopback and connects the wire
// client to it.
func dialStack(st *stack, sharded bool) (target, error) {
	url, stop, err := serve(st.handler)
	if err != nil {
		return nil, err
	}
	st.closers = append(st.closers, stop)
	c, err := load.Dial(url)
	if err != nil {
		return nil, err
	}
	st.closers = append(st.closers, func() error { c.Close(); return nil })
	return httpTarget{c: c, sharded: sharded}, nil
}

// httpLevel replays over HTTP twice on fresh stacks — untraced, then
// traced — and reports what recording spans cost.
func httpLevel(ctx context.Context, ops []script.Op, rec *spans.Recorder, res *Result, start func(*spans.Recorder) (*stack, *replayer, error)) error {
	var wall [2]time.Duration
	for i, rec := range []*spans.Recorder{nil, rec} {
		st, r, err := start(rec)
		if err != nil {
			return err
		}
		t0 := time.Now()
		err = r.run(ctx, ops)
		wall[i] = time.Since(t0)
		if cerr := st.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	res.set("trace.overhead_share", float64(wall[1]-wall[0])/float64(wall[0]), len(ops))
	return nil
}

// routeTimes times route discovery alone — bounded flooding for candidates,
// then the disjoint backup search — for every establish pair of the script,
// on an idle network.
func routeTimes(g *topology.Graph, ops []script.Op) []time.Duration {
	spec, cfg := qos.DefaultSpec(), script.ManagerConfig()
	idle := func(topology.LinkID, topology.NodeID) float64 { return float64(cfg.Capacity) }
	scratch := routing.NewFloodScratch()
	var out []time.Duration
	for _, op := range ops {
		if op.Kind != script.Establish {
			continue
		}
		t0 := time.Now()
		cands, err := scratch.BoundedFlood(g, topology.NodeID(op.Src), topology.NodeID(op.Dst), idle,
			routing.FloodConfig{HopBound: 16, MinBandwidth: float64(spec.Min)})
		if err == nil {
			_, _, _ = routing.BackupRoute(g, cands[0].Path, nil) // timing only; eligibility was settled by the generator
		}
		out = append(out, time.Since(t0))
	}
	return out
}

// establishAllocs measures heap allocations per manager.Establish, exactly:
// single-threaded, with the statistics read outside the call. Each admitted
// connection is terminated again so the population stays at its level.
func establishAllocs(m *manager.Manager, ops []script.Op) (allocs, bytes float64, n int) {
	var before, after runtime.MemStats
	var mallocs, total uint64
	for _, op := range ops {
		if op.Kind != script.Establish {
			continue
		}
		runtime.ReadMemStats(&before)
		rep, err := m.Establish(topology.NodeID(op.Src), topology.NodeID(op.Dst), qos.DefaultSpec())
		runtime.ReadMemStats(&after)
		if err != nil {
			continue
		}
		mallocs += after.Mallocs - before.Mallocs
		total += after.TotalAlloc - before.TotalAlloc
		n++
		if _, err := m.Terminate(rep.Conn.ID); err != nil {
			panic(fmt.Sprintf("layers: terminating a connection just admitted: %v", err))
		}
	}
	if n == 0 {
		return 0, 0, 0
	}
	return float64(mallocs) / float64(n), float64(total) / float64(n), n
}

// journalLevel replays the script's mutations as bare journal appends, each
// waited durable before the next, as a lone caller of the server would.
func journalLevel(ctx context.Context, ops []script.Op, rec *spans.Recorder, dir string, res *Result) error {
	jnl, _, err := journal.Open(dir, journalOptions)
	if err != nil {
		return err
	}
	spec := qos.DefaultSpec()
	records := 0
	for i, op := range ops {
		var ev journal.Event
		switch op.Kind {
		case script.Establish:
			ev = journal.Event{Kind: journal.KindEstablish, Src: op.Src, Dst: op.Dst,
				MinKbps: int64(spec.Min), MaxKbps: int64(spec.Max), IncKbps: int64(spec.Increment), Utility: spec.Utility}
		case script.Terminate:
			ev = journal.Event{Kind: journal.KindTerminate, Conn: int64(i)}
		case script.Fail:
			ev = journal.Event{Kind: journal.KindFailLink, Link: op.Link}
		case script.Repair:
			ev = journal.Event{Kind: journal.KindRepairLink, Link: op.Link}
		default:
			continue
		}
		id := rec.Begin("journal", "append", i, 0)
		seq, err := jnl.AppendAsync(ev)
		rec.End(id)
		if err == nil {
			id = rec.Begin("journal", "wait_durable", i, 0)
			err = jnl.WaitDurable(ctx, seq)
			rec.End(id)
		}
		if err != nil {
			_ = jnl.Close() // reporting the append error
			return fmt.Errorf("journal level: op %d: %w", i, err)
		}
		records++
	}
	if err := jnl.Close(); err != nil {
		return err
	}
	var size int64
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		return err
	}
	for _, s := range segs {
		fi, err := os.Stat(s)
		if err != nil {
			return err
		}
		size += fi.Size()
	}
	all := rec.Spans()
	res.p50us("journal.append_us_p50", values(spans.ByOp(all, "journal", "append")))
	res.p50us("journal.wait_durable_us_p50", values(spans.ByOp(all, "journal", "wait_durable")))
	res.set("journal.bytes_per_op", float64(size)/float64(max(records, 1)), records)
	return nil
}
