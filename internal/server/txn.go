// Cross-shard two-phase commit, shard side. A cross-shard establish is
// coordinated by internal/shard: the coordinator splits the global path
// into per-shard runs and drives each participating shard through
// PrepareTxn (pin the local sub-path as a rigid fixed connection) and then
// CommitTxn (finalize) or AbortTxn (terminate the pinned connections).
// Each phase rides the same write path as every other mutation (DESIGN.md
// "Write path"), so replay reproduces the shard's exact acknowledged state.
// The coordinator delivers the outcome of transactions a crash left in
// flight through these same phase calls once the shards are up (committed
// anywhere → commit; committed nowhere → abort).
package server

import (
	"context"
	"fmt"
	"sort"

	"drqos/internal/channel"
	"drqos/internal/journal"
	"drqos/internal/manager"
	"drqos/internal/qos"
	"drqos/internal/routing"
	"drqos/internal/topology"
)

// TxnTable is a shard's view of the cross-shard transactions it takes part
// in. Only the transition function mutates it (transition.go), so it is a
// pure function of the shard's event history; like the manager it is
// loop-owned once a server runs. The zero value is an empty table.
type TxnTable struct {
	byID map[uint64]*TxnState
	// pinned indexes the alive connections of uncommitted transactions.
	// It is what a terminate or link failure consults to notice an abort,
	// and it is non-empty exactly while a transaction is pending.
	pinned map[channel.ConnID]uint64
	// held indexes the alive connections of committed transactions, so
	// that a committed transaction leaves the table with the last of them.
	held map[channel.ConnID]uint64
	// high is the largest transaction ID the table has seen. Snapshots
	// carry it, so an ID the table has forgotten is never handed out again.
	high uint64
}

// TxnState is one cross-shard transaction as this shard sees it: which
// shards participate (bitmask of shard indices, from the prepare record),
// the local fixed connections the prepares pinned, and whether the commit
// arrived. A transaction disappears from the table with its last alive
// connection, committed or not.
type TxnState struct {
	Peers     uint32
	Conns     []channel.ConnID
	Committed bool
}

// TxnInfo is a read-only view of one transaction, with enough per-
// connection detail (local primary links) for the coordinator to rebuild
// its global cross-connection index at boot.
type TxnInfo struct {
	Txn       uint64
	Peers     uint32
	Committed bool
	Conns     []TxnConnInfo
}

// TxnConnInfo describes one pinned local connection of a transaction.
type TxnConnInfo struct {
	ID    channel.ConnID
	Alive bool
	Links []topology.LinkID
}

// entry returns txn's state, creating it on first sight.
func (t *TxnTable) entry(txn uint64, peers uint32) *TxnState {
	if t.byID == nil {
		t.byID = make(map[uint64]*TxnState)
		t.pinned = make(map[channel.ConnID]uint64)
		t.held = make(map[channel.ConnID]uint64)
	}
	t.high = max(t.high, txn)
	tx := t.byID[txn]
	if tx == nil {
		tx = &TxnState{Peers: peers}
		t.byID[txn] = tx
	}
	return tx
}

func (t *TxnTable) pin(txn uint64, peers uint32, id channel.ConnID) {
	tx := t.entry(txn, peers)
	tx.Conns = append(tx.Conns, id)
	t.pinned[id] = txn
}

// unpin records that connection id is gone. If it was the last alive
// connection of its transaction, the transaction leaves the table: aborted
// if it was uncommitted, over if it was committed.
func (t *TxnTable) unpin(id channel.ConnID) {
	live := t.pinned
	txn, ok := live[id]
	if !ok {
		live = t.held
		if txn, ok = live[id]; !ok {
			return
		}
	}
	delete(live, id)
	for _, c := range t.byID[txn].Conns {
		if _, still := live[c]; still {
			return
		}
	}
	delete(t.byID, txn)
}

func (t *TxnTable) commit(txn uint64) error {
	tx := t.byID[txn]
	if tx == nil {
		return fmt.Errorf("commit for unknown txn %d", txn)
	}
	tx.Committed = true
	for _, c := range tx.Conns {
		if _, alive := t.pinned[c]; alive {
			delete(t.pinned, c)
			t.held[c] = txn
		}
	}
	return nil
}

// seedCommitted installs a committed transaction from a snapshot header,
// its connections resolved against m; one with none alive is not
// installed.
func (t *TxnTable) seedCommitted(ts journal.TxnSnapshot, m *manager.Manager) {
	t.high = max(t.high, ts.Txn)
	var tx *TxnState
	for _, id := range ts.Conns {
		if c := m.Conn(channel.ConnID(id)); c != nil && c.Alive() {
			tx = t.entry(ts.Txn, ts.Peers)
			t.held[channel.ConnID(id)] = ts.Txn
		}
	}
	if tx == nil {
		return
	}
	tx.Committed = true
	for _, c := range ts.Conns {
		tx.Conns = append(tx.Conns, channel.ConnID(c))
	}
}

// HighWater returns the largest transaction ID the table has seen, in its
// life or in the snapshot it was rebuilt from.
func (t *TxnTable) HighWater() uint64 { return t.high }

// pending reports whether any transaction awaits its commit or abort.
func (t *TxnTable) pending() bool { return len(t.pinned) > 0 }

// abortEvents is the journaled trace of aborting txn: one terminate per
// connection it still pins (the rest were already dropped by link
// failures). Applying them drops the transaction. Empty for an unknown or
// committed transaction.
func (t *TxnTable) abortEvents(txn uint64) []journal.Event {
	tx := t.byID[txn]
	if tx == nil {
		return nil
	}
	var evs []journal.Event
	for _, id := range tx.Conns {
		if _, alive := t.pinned[id]; alive {
			evs = append(evs, manager.TerminateEvent(id))
		}
	}
	return evs
}

// Infos lists the table in transaction order, resolving each pinned
// connection against m.
func (t *TxnTable) Infos(m *manager.Manager) []TxnInfo {
	infos := make([]TxnInfo, 0, len(t.byID))
	for id, tx := range t.byID {
		info := TxnInfo{Txn: id, Peers: tx.Peers, Committed: tx.Committed}
		for _, cid := range tx.Conns {
			ci := TxnConnInfo{ID: cid}
			if c := m.Conn(cid); c != nil && c.Alive() {
				ci.Alive = true
				ci.Links = append([]topology.LinkID(nil), c.Primary.Links...)
			}
			info.Conns = append(info.Conns, ci)
		}
		infos = append(infos, info)
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Txn < infos[j].Txn })
	return infos
}

// PrepareTxn is phase one: pin the shard-local sub-path as a rigid
// (Min==Max, no-backup) connection at spec.Min. The spec must be rigid. A
// transaction may receive several prepares on the same shard (one per
// contiguous run of locally-owned links); each pins another connection. A
// prepare whose path the transaction already pins is a retry — the first
// attempt applied but the coordinator lost the reply — and answers the
// existing pin instead of reserving the capacity twice. Prepares reserve
// capacity, so they ride the consuming lane under the same guards as
// Establish. On a domain rejection (no capacity, failed link) nothing is
// pinned and the coordinator aborts the transaction.
func (s *Server) PrepareTxn(ctx context.Context, txn uint64, peers uint32, src, dst topology.NodeID, spec qos.ElasticSpec, path routing.Path) (*manager.ArrivalReport, error) {
	ev := prepareEvent(txn, peers, src, dst, spec, path)
	res, err := s.mutate(ctx, mutation{lane: laneConsuming, counter: &s.establishes, plan: func(m *manager.Manager) ([]journal.Event, manager.Outcome, error) {
		if tx := s.txns.byID[txn]; tx != nil && !tx.Committed {
			for _, id := range tx.Conns {
				if c := m.Conn(id); c != nil && c.Alive() && c.Primary.Equal(path) {
					return nil, manager.Outcome{Arrival: &manager.ArrivalReport{Conn: c}}, nil
				}
			}
		}
		return []journal.Event{ev}, manager.Outcome{}, Validate(m, s.txns, ev)
	}})
	return res.Arrival, err
}

// CommitTxn is phase two: mark the transaction final. No manager state
// changes — the prepares already reserved everything — so commit rides the
// freeing lane and is never refused for overload (an overloaded shard must
// still be able to finish transactions it already accepted resources for).
// Committing an unknown transaction is ErrNotFound (an abort or a link
// failure raced it).
func (s *Server) CommitTxn(ctx context.Context, txn uint64) error {
	_, err := s.mutate(ctx, mutation{lane: laneFreeing, event: journal.Event{Kind: journal.KindCommit, Txn: txn}})
	return err
}

// AbortTxn releases a transaction's pinned connections: one journaled
// terminate per still-alive connection (replay-identical to any other
// terminate), the last of which drops the table entry. Aborting an unknown
// transaction is a no-op — aborts must be idempotent, because the
// coordinator retries them against shards that may have already lost the
// prepare (crash before the append). Rides the freeing lane.
func (s *Server) AbortTxn(ctx context.Context, txn uint64) error {
	_, err := s.mutate(ctx, mutation{lane: laneFreeing, plan: func(*manager.Manager) ([]journal.Event, manager.Outcome, error) {
		if tx := s.txns.byID[txn]; tx != nil && tx.Committed {
			return nil, manager.Outcome{}, fmt.Errorf("%w: txn %d already committed", ErrConflict, txn)
		}
		return s.txns.abortEvents(txn), manager.Outcome{}, nil
	}})
	return err
}

// Txns reads the transaction table — a loop read, consistent with the
// manager state at the instant it runs.
func (s *Server) Txns(ctx context.Context) ([]TxnInfo, error) {
	return query(s, ctx, func(m *manager.Manager) ([]TxnInfo, error) {
		return s.txns.Infos(m), nil
	})
}

// ConnStatus is the point-lookup view of one connection
// (GET /v1/connections/{id}).
type ConnStatus struct {
	ID            int64 `json:"id"`
	Alive         bool  `json:"alive"`
	Level         int   `json:"level"`
	BandwidthKbps int64 `json:"bandwidth_kbps"`
	HasBackup     bool  `json:"has_backup"`
}

// ConnStatus looks up one connection in the loop. Unknown IDs answer
// ErrNotFound; terminated or failure-dropped connections answer with
// Alive=false.
func (s *Server) ConnStatus(ctx context.Context, id channel.ConnID) (*ConnStatus, error) {
	return query(s, ctx, func(m *manager.Manager) (*ConnStatus, error) {
		c := m.Conn(id)
		if c == nil {
			return nil, fmt.Errorf("%w: connection %d", ErrNotFound, id)
		}
		st := &ConnStatus{ID: int64(id), Alive: c.Alive()}
		if c.Alive() {
			st.Level = c.Level
			st.BandwidthKbps = int64(c.Bandwidth())
			st.HasBackup = c.HasBackup
		}
		return st, nil
	})
}

// CorruptForTesting plants an aggregate-ledger corruption in the loop and
// runs the audit so the server latches degraded deterministically. It
// exists for fault drills — the sharded 2PC abort tests latch one
// participant degraded mid-transaction with it — and has no production
// caller.
func (s *Server) CorruptForTesting(ctx context.Context) error {
	return s.do(ctx, false, func(m *manager.Manager) error {
		m.CorruptAggregatesForTesting()
		return s.audit(m)
	})
}
