package chaos

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"drqos/internal/channel"
	"drqos/internal/forecast"
	"drqos/internal/manager"
	"drqos/internal/overload"
	"drqos/internal/qos"
	"drqos/internal/rng"
	"drqos/internal/server"
	"drqos/internal/topology"
)

// OverloadConfig seeds one overload episode: the server's service rate is
// capped with an artificial per-command delay, callers carry deadlines
// shorter than the backlog they create, and the episode asserts the
// overload control plane's whole contract under that pressure.
type OverloadConfig struct {
	Seed     uint64
	Nodes    int    // Waxman topology size (default 24)
	TopoSeed uint64 // default: derived from Seed
	Manager  manager.Config

	// Workers is the number of concurrent client goroutines (default 8).
	Workers int
	// Ops is the number of operations each worker attempts (default 150).
	Ops int
	// QueueDepth is the consuming lane's buffer (default 32).
	QueueDepth int
	// ExecDelay caps the actor's service rate (default 2ms/command), so
	// the closed-loop workers reliably outrun it.
	ExecDelay time.Duration
	// Deadline is each establish call's context timeout (default 4ms —
	// twice the service time, far less than the backlog's sojourn time, so
	// most queued establishes expire before the loop reaches them).
	Deadline time.Duration
	// Target and Interval configure the delay detector (defaults 1ms/5ms —
	// tight, so the latch engages deterministically on any real backlog).
	Target, Interval time.Duration

	// DisableForecast turns off the live forecaster that otherwise runs
	// (with a fast solve cadence) through the episode, to pin down a
	// failure to the overload plane alone. The default-on forecaster is
	// part of the contract: its reads must stay live while the consuming
	// lane drowns, and its solve loop must never wedge the actor loop.
	DisableForecast bool
}

func (c OverloadConfig) withDefaults() OverloadConfig {
	if c.Nodes <= 0 {
		c.Nodes = 24
	}
	if c.TopoSeed == 0 {
		c.TopoSeed = c.Seed + 0x9e3779b97f4a7c15
	}
	if c.Manager.Capacity <= 0 {
		c.Manager.Capacity = 10_000
	}
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.Ops <= 0 {
		c.Ops = 150
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 32
	}
	if c.ExecDelay <= 0 {
		c.ExecDelay = 2 * time.Millisecond
	}
	if c.Deadline <= 0 {
		c.Deadline = 4 * time.Millisecond
	}
	if c.Target <= 0 {
		c.Target = time.Millisecond
	}
	if c.Interval <= 0 {
		c.Interval = 5 * time.Millisecond
	}
	return c
}

// OverloadResult summarizes what one episode observed.
type OverloadResult struct {
	EstablishOK      int64 // establishes answered with an admitted connection
	EstablishExpired int64 // establish calls whose deadline died first
	Terminated       int64 // terminations completed (freeing lane, under load)
	ShedExpired      int64
	ShedCanceled     int64
	Episodes         int64 // overload latch engagements
	RecoveredIn      time.Duration

	ForecastReads  int64 // lock-free forecast reads completed during the burst
	ForecastSolves int64 // solve-loop sequence number reached by episode end
}

// RunOverload drives one seeded overload episode and asserts the graceful-
// degradation contract:
//
//   - the server never wedges: every call is answered within its own
//     deadline, and the whole episode completes under a watchdog;
//   - it sheds: expired commands are dropped unexecuted, and the overload
//     state latches at least once while the backlog is sustained;
//   - terminations (freeing lane) keep completing while establishes queue;
//   - it recovers: once the burst stops, the overloaded state clears, the
//     queue drains, the final audit is clean, and the server never entered
//     degraded mode.
//
// Like RunServer, interleavings are scheduler-dependent; this episode type
// exists for the race detector and the overload state machine, not for
// replayable traces.
func RunOverload(cfg OverloadConfig) (OverloadResult, error) {
	cfg = cfg.withDefaults()
	var res OverloadResult
	g, err := topology.Waxman(topology.WaxmanConfig{
		Nodes: cfg.Nodes, Alpha: 0.33, Beta: 0.25, EnsureConnected: true,
	}, rng.New(cfg.TopoSeed))
	if err != nil {
		return res, fmt.Errorf("chaos: topology: %w", err)
	}
	opts := server.Options{
		QueueDepth: cfg.QueueDepth,
		ExecDelay:  cfg.ExecDelay,
		Overload:   overload.DetectorConfig{Target: cfg.Target, Interval: cfg.Interval},
	}
	if !cfg.DisableForecast {
		// A fast cadence so the solve loop runs many times inside the
		// episode, maximizing its chances to interfere with the actor loop
		// if it ever could.
		opts.Forecast = &forecast.Config{Interval: 10 * time.Millisecond, MinEvents: 10}
	}
	srv, err := server.New(g, cfg.Manager, opts)
	if err != nil {
		return res, fmt.Errorf("chaos: server: %w", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()

	var (
		okN, expiredN, termN atomic.Int64
		firstMu              sync.Mutex
		first                error
	)
	report := func(err error) {
		firstMu.Lock()
		if first == nil {
			first = err
		}
		firstMu.Unlock()
	}

	// Forecast liveness probe: hammer the lock-free read path for the whole
	// burst. Every read completes (it cannot block by construction — the
	// race detector is what makes this loop interesting), and the highest
	// sequence number observed proves the solve loop kept making progress
	// while the consuming lane was drowning.
	var (
		fcReads  atomic.Int64
		fcMaxSeq atomic.Int64
		stopPoll = make(chan struct{})
		pollDone = make(chan struct{})
	)
	if fc := srv.Forecaster(); fc != nil {
		go func() {
			defer close(pollDone)
			for {
				select {
				case <-stopPoll:
					return
				default:
				}
				if cur := fc.Current(); cur != nil && cur.Seq > fcMaxSeq.Load() {
					fcMaxSeq.Store(cur.Seq)
				}
				fcReads.Add(1)
				time.Sleep(500 * time.Microsecond)
			}
		}()
	} else {
		close(pollDone)
	}
	defer func() {
		select {
		case <-stopPoll:
		default:
			close(stopPoll)
		}
		<-pollDone
	}()

	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := rng.New(cfg.Seed ^ (uint64(w)+1)*0xbf58476d1ce4e5b9)
			var mine []channel.ConnID
			for op := 0; op < cfg.Ops; op++ {
				if src.Float64() < 0.2 && len(mine) > 0 {
					// Terminations ride the freeing lane: they must keep
					// completing while the consuming lane is drowning. A
					// generous deadline doubles as the wedge detector — if
					// even freeing work can't finish in 10s, the loop is
					// stuck and the episode fails.
					i := src.Intn(len(mine))
					ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
					_, err := srv.Terminate(ctx, mine[i])
					cancel()
					if err != nil && !errors.Is(err, server.ErrNotFound) {
						report(fmt.Errorf("chaos: worker %d op %d: terminate under overload: %w", w, op, err))
						return
					}
					termN.Add(1)
					mine[i] = mine[len(mine)-1]
					mine = mine[:len(mine)-1]
					continue
				}
				a := src.Intn(cfg.Nodes)
				b := src.Intn(cfg.Nodes - 1)
				if b >= a {
					b++
				}
				ctx, cancel := context.WithTimeout(context.Background(), cfg.Deadline)
				rep, err := srv.Establish(ctx, topology.NodeID(a), topology.NodeID(b), qos.DefaultSpec())
				cancel()
				switch {
				case err == nil:
					okN.Add(1)
					mine = append(mine, rep.Conn.ID)
				case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
					expiredN.Add(1)
				case errors.Is(err, manager.ErrRejected):
					// capacity rejection: serviced, just refused
				case errors.Is(err, server.ErrOverloaded):
					// Refused at admission by the latched overload guard. A
					// client backs off before retrying; without the pause the
					// refusals would end the burst before it built a backlog.
					time.Sleep(cfg.Deadline)
				default:
					report(fmt.Errorf("chaos: worker %d op %d: establish: %w", w, op, err))
					return
				}
			}
		}(w)
	}

	// Watchdog: the burst is deadline-bounded per call, so the whole
	// episode must complete in bounded time — a hang here IS the bug this
	// harness exists to catch.
	doneCh := make(chan struct{})
	go func() { wg.Wait(); close(doneCh) }()
	select {
	case <-doneCh:
	case <-time.After(2 * time.Minute):
		return res, errors.New("chaos: overload episode wedged: workers still blocked after 2m of deadline-bounded calls")
	}
	if first != nil {
		return res, first
	}

	// Recovery: with the burst over, the backlog drains (bounded by
	// QueueDepth x ExecDelay) and the latch must clear on its own.
	recT0 := time.Now()
	deadline := recT0.Add(30 * time.Second)
	for srv.Overloaded() || srv.QueueDepth() > 0 {
		if time.Now().After(deadline) {
			return res, fmt.Errorf("chaos: overload state never cleared: overloaded=%v queue=%d",
				srv.Overloaded(), srv.QueueDepth())
		}
		time.Sleep(time.Millisecond)
	}
	res.RecoveredIn = time.Since(recT0)

	close(stopPoll)
	<-pollDone

	res.EstablishOK = okN.Load()
	res.EstablishExpired = expiredN.Load()
	res.Terminated = termN.Load()
	res.ShedExpired, res.ShedCanceled = srv.Sheds()
	res.Episodes = srv.OverloadEpisodes()
	res.ForecastReads = fcReads.Load()
	res.ForecastSolves = fcMaxSeq.Load()

	// Forecast liveness: the control plane must have kept serving reads
	// through the episode, and — once enough events were admitted to feed
	// the estimator — kept solving too.
	if fc := srv.Forecaster(); fc != nil {
		if res.ForecastReads == 0 {
			return res, errors.New("chaos: forecast probe completed zero reads during the episode")
		}
		if res.EstablishOK+res.Terminated >= 10 && res.ForecastSolves == 0 {
			// The solve loop had events and tens of intervals; silence
			// means it wedged behind the overloaded actor loop.
			return res, fmt.Errorf("chaos: forecaster never solved during the episode (%d events observed)",
				res.EstablishOK+res.Terminated)
		}
	}

	// The pressure must have been real: deadlines died, commands were
	// shed unexecuted, and the latch engaged.
	if res.EstablishExpired == 0 {
		return res, errors.New("chaos: no establish deadline ever expired — the episode applied no real pressure")
	}
	if res.ShedExpired+res.ShedCanceled == 0 {
		return res, errors.New("chaos: expired callers but zero shed commands — the loop executed work nobody was waiting for")
	}
	if res.Episodes == 0 {
		return res, errors.New("chaos: sustained backlog never latched the overload state")
	}

	// Steady state: audit clean, never degraded.
	if err := srv.CheckInvariants(context.Background()); err != nil {
		return res, fmt.Errorf("chaos: final audit after overload: %w", err)
	}
	if deg, reason := srv.Degraded(); deg {
		return res, fmt.Errorf("chaos: server degraded under overload (must shed, not corrupt): %s", reason)
	}
	return res, nil
}
