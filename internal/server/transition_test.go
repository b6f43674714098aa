package server_test

import (
	"errors"
	"testing"

	"drqos/internal/journal"
	"drqos/internal/manager"
	"drqos/internal/qos"
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
