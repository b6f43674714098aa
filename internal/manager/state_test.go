package manager

import (
	"errors"
	"strings"
	"testing"

	"drqos/internal/qos"
	"drqos/internal/rng"
	"drqos/internal/routing"
	"drqos/internal/topology"
)

// busyManager drives a manager through arrivals, terminations and a link
// failure so the exported state exercises levels, failover and failed links.
func busyManager(t *testing.T) *Manager {
	t.Helper()
	g, err := topology.Waxman(topology.WaxmanConfig{
		Nodes: 16, Alpha: 0.33, Beta: 0.25,
	}, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	m := mustMgr(t, g, Config{Capacity: 2000})
	r := rng.New(7)
	for i := 0; i < 30; i++ {
		src := topology.NodeID(r.Intn(g.NumNodes()))
		dst := topology.NodeID(r.Intn(g.NumNodes()))
		if src == dst {
			continue
		}
		m.Establish(src, dst, qos.DefaultSpec())
	}
	ids := m.AliveIDs()
	for i, id := range ids {
		if i%5 == 0 {
			if _, err := m.Terminate(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	if m.AliveCount() == 0 {
		t.Fatal("fixture produced no alive connections")
	}
	// Fail a link that carries at least one primary so failover state and
	// failed-link marking both appear in the export.
	c := m.Conn(m.AliveIDAt(0))
	if _, err := m.FailLink(c.Primary.Links[0]); err != nil {
		t.Fatal(err)
	}
	checkMgr(t, m)
	return m
}

func TestStateRoundtrip(t *testing.T) {
	m := busyManager(t)
	st := m.ExportState()

	body := st.MarshalBinary()
	st2, err := UnmarshalState(body)
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if st.Fingerprint() != st2.Fingerprint() {
		t.Fatal("marshal/unmarshal changed the fingerprint")
	}

	m2, err := Restore(m.Graph(), m.Config(), st2)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	checkMgr(t, m2)
	if got, want := m2.ExportState().Fingerprint(), st.Fingerprint(); got != want {
		t.Fatalf("restored fingerprint %s, want %s", got, want)
	}
	if m2.AliveCount() != m.AliveCount() {
		t.Fatalf("alive %d, want %d", m2.AliveCount(), m.AliveCount())
	}
	if m2.requests != m.requests || m2.rejects != m.rejects {
		t.Fatal("counters not restored")
	}
	for _, id := range m.AliveIDs() {
		a, b := m.Conn(id), m2.Conn(id)
		if b == nil {
			t.Fatalf("conn %d missing after restore", id)
		}
		if a.Level != b.Level || a.State() != b.State() || a.HasBackup != b.HasBackup {
			t.Fatalf("conn %d: level/state/backup mismatch", id)
		}
		if !a.Primary.Equal(b.Primary) {
			t.Fatalf("conn %d primary differs", id)
		}
		if a.HasBackup && !a.Backup.Equal(b.Backup) {
			t.Fatalf("conn %d backup differs", id)
		}
	}
	// The restored manager keeps working: same next event applies cleanly.
	if _, err := m2.Establish(0, topology.NodeID(m2.Graph().NumNodes()-1), qos.DefaultSpec()); err != nil && err != ErrRejected && !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("restored manager cannot establish: %v", err)
	}
	checkMgr(t, m2)
}

func TestUnmarshalStateRejectsDamage(t *testing.T) {
	st := busyManager(t).ExportState()
	body := st.MarshalBinary()

	if _, err := UnmarshalState(body[:len(body)-3]); err == nil {
		t.Fatal("truncated body accepted")
	}
	if _, err := UnmarshalState(append(append([]byte{}, body...), 0)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	bad := append([]byte{}, body...)
	bad[0] ^= 0xff
	if _, err := UnmarshalState(bad); err == nil {
		t.Fatal("wrong magic accepted")
	}
}

func TestRestoreRejectsInconsistentState(t *testing.T) {
	m := busyManager(t)
	st := m.ExportState()

	over := *st
	over.Conns = append([]ConnState{}, st.Conns...)
	over.Conns[0].Level = 1 << 20
	if _, err := Restore(m.Graph(), m.Config(), &over); err == nil {
		t.Fatal("absurd level accepted")
	}

	dup := *st
	dup.Conns = append([]ConnState{}, st.Conns...)
	dup.Conns[1].ID = dup.Conns[0].ID
	if _, err := Restore(m.Graph(), m.Config(), &dup); err == nil {
		t.Fatal("duplicate conn ID accepted")
	}

	beyond := *st
	beyond.NextID = st.Conns[len(st.Conns)-1].ID
	if _, err := Restore(m.Graph(), m.Config(), &beyond); err == nil {
		t.Fatal("NextID below live IDs accepted")
	}
}

// TestRestoreRefusesRoutesItCannotVouchFor damages one route of a snapshot
// per row and requires Restore to refuse it by name, not panic and not
// rebuild a manager that audits clean around a route the connection does
// not run. The undamaged snapshot restores.
func TestRestoreRefusesRoutesItCannotVouchFor(t *testing.T) {
	cases := []struct {
		damage string
		apply  func(cs *ConnState)
		want   string
	}{
		{"primary names a link beyond the graph", func(cs *ConnState) { cs.Primary.Links[1] = 999 }, "primary: routing: link 999 out of range"},
		{"backup names a link beyond the graph", func(cs *ConnState) { cs.Backup.Links[0] = 999 }, "backup: routing: link 999 out of range"},
		{"primary runs elsewhere", func(cs *ConnState) { cs.Dst = 2 }, "primary: route runs 0->5, connection 0->2"},
		{"backup runs elsewhere", func(cs *ConnState) {
			cs.Backup = PathState{Nodes: []int32{0, 3, 4}, Links: []int32{3, 4}}
		}, "backup: route runs 0->4, connection 0->5"},
	}
	m := mustMgr(t, diamond(t), Config{Capacity: 10000, RequireBackup: true})
	if _, err := m.Establish(0, 5, qos.DefaultSpec()); err != nil {
		t.Fatal(err)
	}
	st := m.ExportState()
	if _, err := Restore(m.Graph(), m.Config(), st); err != nil {
		t.Fatalf("undamaged snapshot: %v", err)
	}
	for _, tc := range cases {
		t.Run(tc.damage, func(t *testing.T) {
			// A deep copy through the codec, so no row sees another's damage.
			bad, err := UnmarshalState(st.MarshalBinary())
			mustNil(t, err)
			tc.apply(&bad.Conns[0])
			_, err = Restore(m.Graph(), m.Config(), bad)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("restore said %v, want a refusal containing %q", err, tc.want)
			}
		})
	}
	// A replayed prepare record reaches the same validation.
	bad := routing.Path{Nodes: []topology.NodeID{0, 1, 2}, Links: []topology.LinkID{0, 999}}
	if _, err := m.EstablishFixed(0, 2, qos.ElasticSpec{Min: 100, Max: 100, Increment: 100, Utility: 1}, bad); !errors.Is(err, ErrRejected) || !strings.Contains(err.Error(), "link 999 out of range") {
		t.Fatalf("fixed path over link 999: %v, want a rejection naming it", err)
	}
}
