package server_test

import (
	"errors"
	"slices"
	"testing"

	"drqos/internal/channel"
	"drqos/internal/journal"
	"drqos/internal/manager"
	"drqos/internal/qos"
	"drqos/internal/rng"
	"drqos/internal/server"
	"drqos/internal/topology"
)

// TestValidateRefuses holds every pre-journal refusal of the write path:
// an event that cannot apply to the current state is refused with
// ErrNotFound or ErrConflict before it is journaled, and the refusal
// changes nothing. The accepted rows show each refusal is for its reason.
func TestValidateRefuses(t *testing.T) {
	g := journaledGraph(t)
	m, err := manager.New(g, manager.Config{Capacity: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	spec := qos.DefaultSpec()
	l1 := g.Link(1)
	prepare := manager.EstablishEvent(l1.A, l1.B, qos.ElasticSpec{Min: 200, Max: 200, Increment: 50, Utility: 1})
	prepare.Kind, prepare.Txn, prepare.Peers = journal.KindPrepare, 7, 0b11
	prepare.PathNodes, prepare.PathLinks = []int32{int32(l1.A), int32(l1.B)}, []int32{1}
	var txns server.TxnTable
	for _, ev := range []journal.Event{
		manager.EstablishEvent(0, 1, spec), // conn 1
		manager.LinkEvent(journal.KindFailLink, 0),
		prepare, // conn 2, pinned under txn 7
		{Kind: journal.KindCommit, Txn: 7},
	} {
		if err := server.Replay(m, &txns, ev); err != nil {
			t.Fatal(err)
		}
	}
	if m.AliveCount() != 2 {
		t.Fatalf("setup holds %d connections, want 2", m.AliveCount())
	}
	nodes := int32(g.NumNodes())

	for _, tc := range []struct {
		name string
		ev   journal.Event
		want error // nil: accepted
	}{
		{"unknown connection", journal.Event{Kind: journal.KindTerminate, Conn: 999}, server.ErrNotFound},
		{"repair of a link that is up", manager.LinkEvent(journal.KindRepairLink, 2), server.ErrConflict},
		{"fail of link -1", journal.Event{Kind: journal.KindFailLink, Link: -1}, server.ErrNotFound},
		{"fail of link 1<<20", journal.Event{Kind: journal.KindFailLink, Link: 1 << 20}, server.ErrNotFound},
		{"double fault", manager.LinkEvent(journal.KindFailLink, 0), server.ErrConflict},
		{"source out of range", journal.Event{Kind: journal.KindEstablish, Src: -1, Dst: 1}, server.ErrNotFound},
		{"destination out of range", journal.Event{Kind: journal.KindEstablish, Src: 0, Dst: nodes}, server.ErrNotFound},
		{"prepare endpoint out of range", journal.Event{Kind: journal.KindPrepare, Txn: 8, Src: nodes, Dst: 0}, server.ErrNotFound},
		{"commit of an unknown transaction", journal.Event{Kind: journal.KindCommit, Txn: 8}, server.ErrNotFound},
		{"commit of a committed transaction", journal.Event{Kind: journal.KindCommit, Txn: 7}, server.ErrConflict},
		{"prepare on a committed transaction", prepare, server.ErrConflict},

		{"terminate of a live connection", journal.Event{Kind: journal.KindTerminate, Conn: 1}, nil},
		{"repair of a failed link", manager.LinkEvent(journal.KindRepairLink, 0), nil},
		{"fail of a link that is up", manager.LinkEvent(journal.KindFailLink, 2), nil},
		{"establish in range", manager.EstablishEvent(0, topology.NodeID(nodes-1), spec), nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := m.ExportState().Fingerprint()
			err := server.Validate(m, &txns, tc.ev)
			if tc.want == nil && err != nil || tc.want != nil && !errors.Is(err, tc.want) {
				t.Fatalf("Validate(%s) = %v, want %v", tc.ev, err, tc.want)
			}
			if after := m.ExportState().Fingerprint(); after != before {
				t.Fatal("Validate changed the state")
			}
		})
	}
}

// TestTxnTableForgetsFinishedTransactions drives one shard's transition
// function through a long script of cross-shard pieces — prepared,
// committed or aborted, released, and dropped by link failures — and
// requires the transaction table never to hold more transactions than it
// has alive pieces: a committed transaction leaves with its last
// connection, as an uncommitted one always did. The high-water mark keeps
// every ID the table has seen.
func TestTxnTableForgetsFinishedTransactions(t *testing.T) {
	g := journaledGraph(t)
	m, err := manager.New(g, manager.Config{Capacity: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	var txns server.TxnTable
	src := rng.New(5)
	var live []int64 // alive pieces, in admission order
	replay := func(ev journal.Event) {
		t.Helper()
		if err := server.Replay(m, &txns, ev); err != nil {
			t.Fatal(err)
		}
	}
	const rounds = 600
	var committed int
	for txn := uint64(1); txn <= rounds; txn++ {
		for piece := 0; piece < 1+src.Intn(2); piece++ {
			lid := topology.LinkID(src.Intn(g.NumLinks()))
			l := g.Link(lid)
			if m.Network().Failed(topology.LinkID(0)) && src.Intn(4) == 0 {
				replay(manager.LinkEvent(journal.KindRepairLink, 0))
			}
			ev := manager.EstablishEvent(l.A, l.B, qos.ElasticSpec{Min: 100, Max: 100, Increment: 100, Utility: 1})
			ev.Kind, ev.Txn, ev.Peers = journal.KindPrepare, txn, 0b11
			ev.PathNodes, ev.PathLinks = []int32{int32(l.A), int32(l.B)}, []int32{int32(lid)}
			before := m.AliveCount()
			replay(ev)
			if m.AliveCount() > before {
				live = append(live, int64(m.AliveIDAt(m.AliveCount()-1)))
			}
		}
		if infos := txns.Infos(m); len(infos) > 0 && infos[len(infos)-1].Txn == txn {
			if src.Intn(5) == 0 {
				for _, ev := range txns.AbortEvents(txn) {
					replay(ev)
				}
			} else {
				replay(journal.Event{Kind: journal.KindCommit, Txn: txn})
				committed++
			}
		}
		// Release the oldest pieces so the population stays level, and
		// now and then fail link 0 under whatever crosses it.
		for len(live) > 40 {
			id := live[0]
			live = live[1:]
			if c := m.Conn(channel.ConnID(id)); c != nil && c.Alive() {
				replay(journal.Event{Kind: journal.KindTerminate, Conn: id})
			}
		}
		if txn%50 == 0 && !m.Network().Failed(0) {
			replay(manager.LinkEvent(journal.KindFailLink, 0))
		}
		infos := txns.Infos(m)
		alive := 0
		for _, tx := range infos {
			for _, c := range tx.Conns {
				if c.Alive {
					alive++
				}
			}
			if tx.Committed && !slices.ContainsFunc(tx.Conns, func(c server.TxnConnInfo) bool { return c.Alive }) {
				t.Fatalf("txn %d: committed, no connection alive, still in the table", tx.Txn)
			}
		}
		if len(infos) > alive || len(infos) > m.AliveCount() {
			t.Fatalf("after txn %d: %d transactions in the table, %d alive pieces", txn, len(infos), alive)
		}
	}
	if committed < rounds/2 {
		t.Fatalf("only %d of %d transactions committed", committed, rounds)
	}
	if got := txns.HighWater(); got != rounds {
		t.Fatalf("high-water mark %d, want %d", got, rounds)
	}
}
