// The oracle: the one place that decides "the state is right". Since every
// way an event reaches a manager goes through server's transition function,
// replaying a node's journal IS the specification of that node's state —
// so the oracle replays, with server.Rebuild and server.Replay, and
// compares what it finds with what the node serves and with what the
// ledger says clients were told. Five clauses, judged after every fault and
// at the end of every episode:
//
//	(i)   every survivor's journal still holds every record known
//	      acknowledged, bit for bit; its live fingerprint, transaction table
//	      and term are the replay of that journal; replicas agree on the
//	      prefix they share.
//	(ii)  what each establish was told — id, level, bandwidth, backup — is
//	      what replay holds right after the record that creates that id.
//	(iii) CheckInvariants is clean on every live node, no node degraded
//	      unless the episode injected corruption, and no shard holds an
//	      uncommitted transaction once nothing is pending resolution.
//	(iv)  every acknowledged, un-terminated connection is alive by id on the
//	      acting primary, between the endpoints its client asked for; and an
//	      old primary's last acknowledgment precedes its successor's first.
//	(v)   the liveness bound each fault declares (faults.go).
package chaos

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"time"

	"drqos/internal/channel"
	"drqos/internal/journal"
	"drqos/internal/manager"
	"drqos/internal/server"
)

// told is one acknowledged establish: the request, what the client was
// told about the connection, which reign acknowledged it and when.
type told struct {
	ev     journal.Event
	id     int64
	level  int
	kbps   int64
	backup bool
	reign  int
	at     time.Time
}

// ledger is what the episode's clients know: every acknowledged establish;
// the connections that left the acknowledged-alive set — an acknowledged
// terminate or link failure took them, or a terminate's outcome is unknown;
// and the links they were told are down.
type ledger struct {
	mu   sync.Mutex
	acks []*told
	gone map[int64]bool
	down map[int]bool
	last map[int]time.Time // reign → its latest acknowledgment
}

// told enters an acknowledgment. It is the only way into the ledger. (One
// client's failure report can name a connection before the client that
// established it has got round to entering it, which is why gone is a set
// of ids and not a mark on the entry.)
func (l *ledger) told(ev journal.Event, t told, reign int) {
	t.ev, t.reign, t.at = ev, reign, time.Now()
	l.mu.Lock()
	l.acks = append(l.acks, &t)
	l.last[reign] = t.at
	l.mu.Unlock()
}

// lose takes connections out of the acknowledged-alive set.
func (l *ledger) lose(ids ...channel.ConnID) {
	l.mu.Lock()
	for _, id := range ids {
		l.gone[int64(id)] = true
	}
	l.mu.Unlock()
}

func (l *ledger) setLink(link int, failed bool) {
	l.mu.Lock()
	l.down[link] = failed
	l.mu.Unlock()
}

// population is the generator's view of the plane through the ledger.
func (l *ledger) population(nodes, links int) population {
	l.mu.Lock()
	defer l.mu.Unlock()
	pop := newPopulation(nodes, links, func(link int) bool { return l.down[link] })
	for _, t := range l.acks {
		if !l.gone[t.id] {
			pop.alive = append(pop.alive, t.id)
		}
	}
	return pop
}

// replayed is one journal, replayed.
type replayed struct {
	rec  *journal.Recovered
	m    *manager.Manager
	txns *server.TxnTable
	// born maps a local connection id to what replay held right after the
	// record that created it; first is the lowest id the replayable tail
	// can have created (ids below it were born behind the snapshot).
	born  map[channel.ConnID]channel.Conn
	first channel.ConnID
	byTxn map[uint64][]channel.ConnID
}

// replay rebuilds n's journal the way a restart would — snapshot restore
// and cross-check through Rebuild, then the tail record by record
// through server.Replay — noting each connection as its record creates it.
func (w *world) replay(n *node) (*replayed, error) {
	rec, err := journal.Read(n.dir)
	if err != nil {
		return nil, err
	}
	head := *rec
	head.Events = nil
	rp := &replayed{rec: rec, born: make(map[channel.ConnID]channel.Conn), byTxn: make(map[uint64][]channel.ConnID)}
	if rp.m, rp.txns, err = server.Rebuild(n.g, w.mcfg, &head); err != nil {
		return nil, err
	}
	rp.first = channel.ConnID(rp.m.ExportState().NextID)
	next := rp.first
	for _, ev := range rec.Events {
		if err := server.Replay(rp.m, rp.txns, ev); err != nil {
			return nil, err
		}
		if c := rp.m.Conn(next); c != nil {
			rp.born[next] = *c
			if ev.Kind == journal.KindPrepare {
				rp.byTxn[ev.Txn] = append(rp.byTxn[ev.Txn], next)
			}
			next++
		}
	}
	return rp, rp.m.CheckInvariants()
}

// sameRecords reports the first sequence number below limit at which two
// recovered journals hold different records (0: none). Only sequence
// numbers both still hold as records can be compared; a journal's records
// are contiguous, so none is missing in between.
func sameRecords(a, b *journal.Recovered, limit uint64) uint64 {
	if a == nil {
		return 0
	}
	at := make(map[uint64]uint32, len(b.Events))
	for _, ev := range b.Events {
		at[ev.Seq] = journal.EventCRC(ev)
	}
	for _, ev := range a.Events {
		if crc, held := at[ev.Seq]; held && ev.Seq < limit && crc != journal.EventCRC(ev) {
			return ev.Seq
		}
	}
	return 0
}

// verdict is one judgment in progress: the violations found so far and the
// replay of every journal the plane holds.
type verdict struct {
	w     *world
	after string
	bad   []string
	views map[*node]*replayed
}

func (v *verdict) flag(clause, format string, args ...any) {
	v.bad = append(v.bad, fmt.Sprintf("oracle (%s) after %s: ", clause, v.after)+fmt.Sprintf(format, args...))
}

// judge is the oracle. It quiesces the clients, judges every clause it can
// and reports every violation it finds, each tagged with its clause.
func (w *world) judge(after string) error {
	w.quiet.Lock()
	defer w.quiet.Unlock()
	v := &verdict{w: w, after: after, views: make(map[*node]*replayed)}
	var fps []string
	for _, n := range w.nodes {
		if fp := v.node(n); fp != "" {
			fps = append(fps, fp)
		}
	}
	if w.ep.Plane == Pair {
		v.pair()
	}
	v.ledger()
	if len(v.bad) > 0 {
		return errors.New(strings.Join(v.bad, "\n"))
	}
	w.fingerprint = strings.Join(fps, " ")
	return nil
}

// node judges one node — clauses (iii) and (i) — and returns its live
// fingerprint ("" when it is down).
func (v *verdict) node(n *node) string {
	w, ctx := v.w, context.Background()
	live := !n.down.Load()
	if deg, why := n.srv.Degraded(); deg && !w.injected {
		v.flag("iii", "%s degraded with no corruption injected: %s", n.name, why)
	}
	if live {
		if err := n.srv.CheckInvariants(ctx); err != nil {
			v.flag("iii", "%s: %v", n.name, err)
		}
		txns, _ := n.srv.Txns(ctx)
		for _, tx := range txns {
			if !tx.Committed && w.coord != nil && w.coord.PendingResolutions() == 0 {
				v.flag("iii", "%s holds uncommitted transaction %d with nothing pending resolution", n.name, tx.Txn)
			}
		}
	}
	var fp string
	if live {
		fp = n.fingerprint()
	}
	if n.dir == "" {
		return fp
	}
	if primary, _ := w.primary(); live && n != primary && n.srv.IsFollower() && !await(convergeWithin, func() bool {
		return n.jnl.LastSeq() >= primary.jnl.LastSeq() && n.srv.Term() >= primary.srv.Term()
	}) {
		v.flag("v", "follower %s stuck at seq %d term %d, primary at seq %d term %d",
			n.name, n.jnl.LastSeq(), n.srv.Term(), primary.jnl.LastSeq(), primary.srv.Term())
	}
	// A background actor (2PC resolver, replication stream) may move a live
	// node mid-judgment: replay between two equal fingerprints.
	rp, err := w.replay(n)
	for try := 0; err == nil && live && try < 3 && n.fingerprint() != fp; try++ {
		fp = n.fingerprint()
		rp, err = w.replay(n)
	}
	if err != nil {
		v.flag("i", "%s: journal does not replay: %v", n.name, err)
		return fp
	}
	v.views[n] = rp
	if h := w.history[n.dir]; h != nil && rp.rec.LastSeq < h.LastSeq {
		v.flag("i", "%s: journal ends at seq %d, acknowledged through %d", n.name, rp.rec.LastSeq, h.LastSeq)
	} else if seq := sameRecords(h, rp.rec, ^uint64(0)); seq != 0 {
		v.flag("i", "%s: acknowledged record %d is not the record on disk", n.name, seq)
	}
	if !live {
		return ""
	}
	if want := rp.m.ExportState(); want.Fingerprint() != fp {
		_, got, err := n.srv.ExportState(ctx)
		if err == nil {
			err = compareStates(want, got)
		}
		v.flag("i", "%s: live state is not the replay of its journal: %v", n.name, err)
	}
	if txns, _ := n.srv.Txns(ctx); !reflect.DeepEqual(txns, rp.txns.Infos(rp.m)) {
		v.flag("i", "%s: live transaction table %+v, replay holds %+v", n.name, txns, rp.txns.Infos(rp.m))
	}
	if n.srv.Term() != rp.rec.Term {
		v.flag("i", "%s serves term %d, its journal holds term %d", n.name, n.srv.Term(), rp.rec.Term)
	}
	return fp
}

// pair is clause (i) across replicas: the two journals agree, record for
// record, below the acting primary's latest term record — the replicated
// prefix it promoted on; an ex-primary may hold a divergent unreplicated
// suffix past it until it rejoins as a follower, and then they agree
// everywhere.
func (v *verdict) pair() {
	primary, _ := v.w.primary()
	other := v.w.other()
	a, b := v.views[primary], v.views[other]
	if a == nil || b == nil {
		return
	}
	prefix := a.rec.LastSeq + 1
	for _, ev := range a.rec.Events {
		if ev.Kind == journal.KindTerm && ev.Term == a.rec.Term && !other.srv.IsFollower() {
			prefix = ev.Seq
		}
	}
	if seq := sameRecords(a.rec, b.rec, prefix); seq != 0 {
		v.flag("i", "journals of %s and %s differ at seq %d: %v", primary.name, other.name, seq, CompareManagers(a.m, b.m))
	}
}

// locate resolves a ledger id to the nodes and local ids that hold it. A
// server plane's ids are the acting primary's own; the coordinator's encode
// (local id, shard) or, with the cross marker 255 in the low byte, a
// transaction whose parts are the connections its prepares pinned.
func (v *verdict) locate(id int64) (nodes []*node, ids []channel.ConnID) {
	if v.w.coord == nil {
		n, _ := v.w.primary()
		return []*node{n}, []channel.ConnID{channel.ConnID(id)}
	}
	if id%256 != 255 {
		return []*node{v.w.nodes[id%256]}, []channel.ConnID{channel.ConnID(id / 256)}
	}
	for _, n := range v.w.nodes {
		if rp := v.views[n]; rp != nil {
			for _, local := range rp.byTxn[uint64(id/256)] {
				nodes, ids = append(nodes, n), append(ids, local)
			}
		}
	}
	return nodes, ids
}

// ledger is clauses (ii) and (iv): what clients were told against the
// replay and the live state of the nodes that hold each connection.
func (v *verdict) ledger() {
	led := v.w.led
	led.mu.Lock()
	defer led.mu.Unlock()
	for _, t := range led.acks {
		nodes, ids := v.locate(t.id)
		if len(nodes) == 0 && !led.gone[t.id] {
			v.flag("iv", "acknowledged connection %d (%s) is in no shard's journal", t.id, t.ev)
		}
		for i, n := range nodes {
			rp := v.views[n]
			if rp != nil && ids[i] >= rp.first {
				c, ok := rp.born[ids[i]]
				switch {
				case !ok:
					v.flag("ii", "%s: no record creates acknowledged connection %d (%s)", n.name, t.id, t.ev)
				case v.w.coord == nil && (int32(c.Src) != t.ev.Src || int32(c.Dst) != t.ev.Dst):
					v.flag("iv", "connection %d on %s is not the acknowledged %s", t.id, n.name, t.ev)
				case c.Level != t.level || int64(c.Bandwidth()) != t.kbps || c.HasBackup != t.backup:
					v.flag("ii", "connection %d: client was told level %d, %d Kb/s, backup %v; replay of %s holds level %d, %d Kb/s, backup %v at its record",
						t.id, t.level, t.kbps, t.backup, n.name, c.Level, int64(c.Bandwidth()), c.HasBackup)
				}
			}
			if led.gone[t.id] || n.down.Load() {
				continue
			}
			st, err := n.srv.ConnStatus(context.Background(), ids[i])
			if err != nil || !st.Alive {
				v.flag("iv", "acknowledged connection %d (%s) is not alive on %s (%v)", t.id, t.ev, n.name, err)
			}
		}
	}
	byTime := append([]*told(nil), led.acks...)
	sort.SliceStable(byTime, func(i, j int) bool { return byTime[i].at.Before(byTime[j].at) })
	for i := 1; i < len(byTime); i++ {
		if prev, t := byTime[i-1], byTime[i]; t.reign < prev.reign {
			v.flag("iv", "split brain: reign %d acknowledged connection %d %s after reign %d's acknowledgment of %d",
				t.reign, t.id, t.at.Sub(prev.at), prev.reign, prev.id)
		}
	}
}

// CompareManagers checks two managers for observable state equality and
// reports the first difference with enough context to debug it.
func CompareManagers(want, got *manager.Manager) error {
	return compareStates(want.ExportState(), got.ExportState())
}

// compareStates walks two exported states — everything else a manager holds
// is derived from its state and audited by CheckInvariants, and the
// fingerprint is a digest of exactly these fields — in the order that
// localizes a divergence best: counters, failed links, then each
// connection's level, routes and backup.
func compareStates(want, got *manager.State) error {
	if want.NextID != got.NextID || want.Requests != got.Requests || want.Rejects != got.Rejects {
		return fmt.Errorf("next id/requests/rejects %d/%d/%d, want %d/%d/%d",
			got.NextID, got.Requests, got.Rejects, want.NextID, want.Requests, want.Rejects)
	}
	if !reflect.DeepEqual(want.FailedLinks, got.FailedLinks) {
		return fmt.Errorf("failed links %v, want %v", got.FailedLinks, want.FailedLinks)
	}
	if len(want.Conns) != len(got.Conns) {
		return fmt.Errorf("alive count %d, want %d", len(got.Conns), len(want.Conns))
	}
	for i, wc := range want.Conns {
		if !reflect.DeepEqual(wc, got.Conns[i]) {
			return fmt.Errorf("alive[%d] = %+v, want %+v", i, got.Conns[i], wc)
		}
	}
	return nil
}
