package network

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"drqos/internal/channel"
	"drqos/internal/qos"
	"drqos/internal/rng"
	"drqos/internal/routing"
	"drqos/internal/topology"
)

// fixture: a 6-node graph with two disjoint 3-hop routes 0→5 plus a chord.
//
//	0 - 1 - 2 - 5
//	 \  |       |
//	  3 - 4 ----+
func testNet(t *testing.T, capacity qos.Kbps) (*Network, routing.Path, routing.Path) {
	t.Helper()
	g := topology.NewGraph(6)
	for i := 0; i < 6; i++ {
		g.AddNode(topology.Point{})
	}
	mustLink := func(a, b topology.NodeID) topology.LinkID {
		id, err := g.AddLink(a, b)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	l01 := mustLink(0, 1)
	l12 := mustLink(1, 2)
	l25 := mustLink(2, 5)
	l03 := mustLink(0, 3)
	l34 := mustLink(3, 4)
	l45 := mustLink(4, 5)
	mustLink(1, 3)

	n, err := New(g, capacity)
	if err != nil {
		t.Fatal(err)
	}
	upper := routing.Path{Nodes: []topology.NodeID{0, 1, 2, 5}, Links: []topology.LinkID{l01, l12, l25}}
	lower := routing.Path{Nodes: []topology.NodeID{0, 3, 4, 5}, Links: []topology.LinkID{l03, l34, l45}}
	return n, upper, lower
}

func mustOK(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func checkInv(t *testing.T, n *Network) {
	t.Helper()
	if err := n.CheckInvariants(); err != nil {
		t.Fatalf("invariant violated: %v", err)
	}
}

// fwd returns the forward (A→B) direction of a physical link; every fixture
// route in this file traverses its links forward.
func fwd(l topology.LinkID) topology.DirLinkID { return topology.DirLinkID(2 * l) }

// dirLinks is p as the primary operations take it: its directed links.
func dirLinks(n *Network, p routing.Path) []topology.DirLinkID { return p.DirLinks(n.Graph()) }

func TestNewValidation(t *testing.T) {
	g := topology.NewGraph(2)
	g.AddNode(topology.Point{})
	g.AddNode(topology.Point{})
	if _, err := New(g, 0); err == nil {
		t.Fatal("zero capacity accepted")
	}
}

func TestReservePrimaryBasics(t *testing.T) {
	n, upper, _ := testNet(t, 10000)
	mustOK(t, n.ReservePrimary(1, 1, dirLinks(n, upper), 100))
	for _, l := range upper.Links {
		if n.Grant(fwd(l), 1) != 100 {
			t.Fatalf("grant on link %d = %v", l, n.Grant(fwd(l), 1))
		}
		if n.GrantSum(fwd(l)) != 100 || n.MinSum(fwd(l)) != 100 {
			t.Fatalf("sums on link %d: %v/%v", l, n.GrantSum(fwd(l)), n.MinSum(fwd(l)))
		}
		// The reverse direction is untouched: channels are unidirectional.
		rev := topology.DirLinkID(2*l + 1)
		if n.GrantSum(rev) != 0 {
			t.Fatalf("reverse direction of link %d carries %v", l, n.GrantSum(rev))
		}
	}
	checkInv(t, n)
	// Duplicate reservation must fail atomically.
	if err := n.ReservePrimary(1, 1, dirLinks(n, upper), 100); err == nil {
		t.Fatal("duplicate accepted")
	}
	checkInv(t, n)
}

func TestReservePrimaryCapacityLimit(t *testing.T) {
	n, upper, _ := testNet(t, 250)
	mustOK(t, n.ReservePrimary(1, 1, dirLinks(n, upper), 100))
	mustOK(t, n.ReservePrimary(2, 2, dirLinks(n, upper), 100))
	err := n.ReservePrimary(3, 3, dirLinks(n, upper), 100)
	if !errors.Is(err, ErrCapacity) {
		t.Fatalf("err = %v, want ErrCapacity", err)
	}
	checkInv(t, n)
	if n.CanAdmitPrimary(upper, 100) {
		t.Fatal("CanAdmitPrimary disagrees with ReservePrimary")
	}
	if !n.CanAdmitPrimary(upper, 50) {
		t.Fatal("50Kbps should fit in the remaining headroom")
	}
}

func TestReservePrimaryRejectsNonPositive(t *testing.T) {
	n, upper, _ := testNet(t, 1000)
	if err := n.ReservePrimary(1, 1, dirLinks(n, upper), 0); err == nil {
		t.Fatal("zero reservation accepted")
	}
}

func TestReservePrimaryOnFailedLink(t *testing.T) {
	n, upper, _ := testNet(t, 1000)
	n.SetFailed(upper.Links[1], true)
	if err := n.ReservePrimary(1, 1, dirLinks(n, upper), 100); !errors.Is(err, ErrLinkFailed) {
		t.Fatalf("err = %v", err)
	}
	if n.AdmissionHeadroom(fwd(upper.Links[1])) != 0 {
		t.Fatal("failed link reports headroom")
	}
	if n.FreeForGrowth(fwd(upper.Links[1])) != 0 {
		t.Fatal("failed link reports growth room")
	}
}

func TestAdjustPrimaryGrowAndShrink(t *testing.T) {
	n, upper, _ := testNet(t, 1000)
	mustOK(t, n.ReservePrimary(1, 1, dirLinks(n, upper), 100))
	mustOK(t, n.AdjustPrimary(1, dirLinks(n, upper), 500))
	for _, l := range upper.Links {
		if n.Grant(fwd(l), 1) != 500 {
			t.Fatalf("grow failed on link %d", l)
		}
		if n.MinSum(fwd(l)) != 100 {
			t.Fatalf("min changed on grow: %v", n.MinSum(fwd(l)))
		}
	}
	checkInv(t, n)
	mustOK(t, n.AdjustPrimary(1, dirLinks(n, upper), 100))
	checkInv(t, n)
	// Below minimum is rejected.
	if err := n.AdjustPrimary(1, dirLinks(n, upper), 50); err == nil {
		t.Fatal("grant below min accepted")
	}
	// Unknown conn.
	if err := n.AdjustPrimary(9, dirLinks(n, upper), 100); !errors.Is(err, ErrUnknownConn) {
		t.Fatalf("err = %v", err)
	}
}

func TestAdjustPrimaryCapacityCeiling(t *testing.T) {
	n, upper, _ := testNet(t, 1000)
	mustOK(t, n.ReservePrimary(1, 1, dirLinks(n, upper), 100))
	mustOK(t, n.ReservePrimary(2, 2, dirLinks(n, upper), 100))
	// 800 free; conn 1 can grow to 900 total? No: 100+900=1000 is fine.
	mustOK(t, n.AdjustPrimary(1, dirLinks(n, upper), 900))
	if err := n.AdjustPrimary(2, dirLinks(n, upper), 200); !errors.Is(err, ErrCapacity) {
		t.Fatalf("err = %v", err)
	}
	checkInv(t, n)
	if n.FreeForGrowth(fwd(upper.Links[0])) != 0 {
		t.Fatalf("free = %v", n.FreeForGrowth(fwd(upper.Links[0])))
	}
}

func TestReleasePrimary(t *testing.T) {
	n, upper, _ := testNet(t, 1000)
	mustOK(t, n.ReservePrimary(1, 1, dirLinks(n, upper), 100))
	mustOK(t, n.AdjustPrimary(1, dirLinks(n, upper), 300))
	mustOK(t, n.ReleasePrimary(1, dirLinks(n, upper)))
	for _, l := range upper.Links {
		if n.GrantSum(fwd(l)) != 0 || n.MinSum(fwd(l)) != 0 {
			t.Fatalf("release left residue on link %d", l)
		}
	}
	checkInv(t, n)
	if err := n.ReleasePrimary(1, dirLinks(n, upper)); !errors.Is(err, ErrUnknownConn) {
		t.Fatalf("double release: %v", err)
	}
}

// TestLoadFreeForGrowth: the one-pass loads agree with FreeForGrowth and
// AdmissionHeadroom link by link, a failed link and a backup's spare
// included.
func TestLoadFreeForGrowth(t *testing.T) {
	n, upper, lower := testNet(t, 1000)
	mustOK(t, n.ReservePrimary(1, 1, dirLinks(n, upper), 100))
	mustOK(t, n.AdjustPrimary(1, dirLinks(n, upper), 300))
	mustOK(t, n.ReserveBackup(1, 0, lower, upper.Links, 100))
	mustOK(t, n.ReservePrimary(2, 2, dirLinks(n, lower), 100))
	n.SetFailed(lower.Links[1], true)
	room := make([]qos.Kbps, n.Graph().NumDirLinks())
	n.LoadFreeForGrowth(room)
	headroom := make([]float64, n.Graph().NumDirLinks())
	n.LoadAdmissionHeadroom(headroom)
	for d := range room {
		if want := n.FreeForGrowth(topology.DirLinkID(d)); room[d] != want {
			t.Fatalf("room on directed link %d = %v, FreeForGrowth %v", d, room[d], want)
		}
		if want := float64(n.AdmissionHeadroom(topology.DirLinkID(d))); headroom[d] != want {
			t.Fatalf("headroom on directed link %d = %v, AdmissionHeadroom %v", d, headroom[d], want)
		}
	}
	if room[fwd(upper.Links[0])] != 700 || room[fwd(lower.Links[0])] != 900 || room[fwd(lower.Links[1])] != 0 {
		t.Fatalf("room = %v", room)
	}
	if headroom[fwd(upper.Links[0])] != 900 || headroom[fwd(lower.Links[0])] != 800 || headroom[fwd(lower.Links[1])] != 0 {
		t.Fatalf("headroom = %v", headroom)
	}
}

func TestBackupMultiplexingSharesSpare(t *testing.T) {
	n, upper, lower := testNet(t, 1000)
	// Two connections with DISJOINT primaries (upper vs lower route on
	// different node pairs is not possible here, so use two conns both
	// 0→5: conn 1 primary upper, conn 2 primary lower; both back up on the
	// other route. Their backups conflict pairwise on every link... so
	// instead give both conns the SAME primary-disjointness structure:
	// conn 1 primary upper / backup lower; conn 2 primary upper / backup
	// lower would conflict. For sharing, primaries must be disjoint:
	// conn 1 primary upper, backup lower; conn 2 primary lower, backup
	// upper. Backups then live on different routes. To observe
	// multiplexing on ONE link we need two backups on the same link whose
	// primaries are disjoint — conn 3 primary upper (disjoint from lower).
	mustOK(t, n.ReservePrimary(1, 1, dirLinks(n, upper), 100))
	mustOK(t, n.ReserveBackup(1, 0, lower, upper.Links, 100))
	checkInv(t, n)

	mustOK(t, n.ReservePrimary(2, 2, dirLinks(n, lower), 100))
	mustOK(t, n.ReserveBackup(2, 0, upper, lower.Links, 100))
	checkInv(t, n)

	// Backup of conn 3 (primary on upper) multiplexes with backup of conn
	// 1 (also primary on upper): they activate together on a shared-upper
	// failure, so spare on lower links must be 200 for upper failures.
	mustOK(t, n.ReservePrimary(3, 3, dirLinks(n, upper), 100))
	mustOK(t, n.ReserveBackup(3, 0, lower, upper.Links, 100))
	checkInv(t, n)
	for _, l := range lower.Links {
		if got := n.Spare(fwd(l)); got != 200 {
			t.Fatalf("spare on lower link %d = %v, want 200 (both upper-primary backups)", l, got)
		}
	}
}

func TestBackupMultiplexingDisjointPrimariesShare(t *testing.T) {
	// Two conns whose primaries are on DIFFERENT single links but whose
	// backups share a link: spare is max(min1, min2), not the sum.
	g := topology.NewGraph(4)
	for i := 0; i < 4; i++ {
		g.AddNode(topology.Point{})
	}
	lA, _ := g.AddLink(0, 1) // primary of conn 1
	lB, _ := g.AddLink(2, 3) // primary of conn 2
	lS, _ := g.AddLink(1, 2) // shared backup link
	l0, _ := g.AddLink(0, 2)
	l1, _ := g.AddLink(1, 3)
	n, err := New(g, 1000)
	if err != nil {
		t.Fatal(err)
	}
	p1 := routing.Path{Nodes: []topology.NodeID{0, 1}, Links: []topology.LinkID{lA}}
	p2 := routing.Path{Nodes: []topology.NodeID{2, 3}, Links: []topology.LinkID{lB}}
	b1 := routing.Path{Nodes: []topology.NodeID{0, 2, 1}, Links: []topology.LinkID{l0, lS}}
	b2 := routing.Path{Nodes: []topology.NodeID{2, 1, 3}, Links: []topology.LinkID{lS, l1}}
	mustOK(t, n.ReservePrimary(1, 1, dirLinks(n, p1), 100))
	mustOK(t, n.ReservePrimary(2, 2, dirLinks(n, p2), 100))
	mustOK(t, n.ReserveBackup(1, 0, b1, p1.Links, 100))
	mustOK(t, n.ReserveBackup(2, 0, b2, p2.Links, 100))
	checkInv(t, n)
	if got := n.Spare(n.Graph().DirID(lS, 2)); got != 100 {
		t.Fatalf("spare on shared backup link = %v, want 100 (multiplexed)", got)
	}
}

func TestBackupAdmissionBlocksConflictOverflow(t *testing.T) {
	// Capacity 250: one primary at min 100 leaves 150 for spare. Two
	// conflicting backups (same primary link) need 200 spare → rejected.
	g := topology.NewGraph(4)
	for i := 0; i < 4; i++ {
		g.AddNode(topology.Point{})
	}
	lP, _ := g.AddLink(0, 1)
	lQ, _ := g.AddLink(0, 2)
	lS, _ := g.AddLink(2, 1)
	n, err := New(g, 250)
	if err != nil {
		t.Fatal(err)
	}
	primary := routing.Path{Nodes: []topology.NodeID{0, 1}, Links: []topology.LinkID{lP}}
	backup := routing.Path{Nodes: []topology.NodeID{0, 2, 1}, Links: []topology.LinkID{lQ, lS}}
	mustOK(t, n.ReservePrimary(1, 1, dirLinks(n, primary), 100))
	mustOK(t, n.ReservePrimary(2, 2, dirLinks(n, primary), 100))
	mustOK(t, n.ReserveBackup(1, 0, backup, primary.Links, 100))
	checkInv(t, n)
	// Backup 2 conflicts with backup 1 (same primary link lP): spare would
	// need to be 200 on lQ/lS, but capacity 250 minus... minSum on lQ is 0,
	// so 200 fits there; admission must consider each link. On lQ and lS
	// minSum=0, spare 200 ≤ 250 → actually admissible. Tighten by loading
	// lS with a primary first.
	short := routing.Path{Nodes: []topology.NodeID{2, 1}, Links: []topology.LinkID{lS}}
	mustOK(t, n.ReservePrimary(3, 3, dirLinks(n, short), 100))
	if n.CanAdmitBackup(backup, primary.Links, 100) {
		t.Fatal("conflicting backup admitted beyond capacity")
	}
	if err := n.ReserveBackup(2, 0, backup, primary.Links, 100); !errors.Is(err, ErrCapacity) {
		t.Fatalf("err = %v", err)
	}
	checkInv(t, n)
}

func TestReserveBackupValidation(t *testing.T) {
	n, upper, lower := testNet(t, 1000)
	mustOK(t, n.ReservePrimary(1, 1, dirLinks(n, upper), 100))
	if err := n.ReserveBackup(1, 0, lower, upper.Links, 0); err == nil {
		t.Fatal("zero backup min accepted")
	}
	if err := n.ReserveBackup(1, 0, lower, nil, 100); err == nil {
		t.Fatal("backup without primary links accepted")
	}
	mustOK(t, n.ReserveBackup(1, 0, lower, upper.Links, 100))
	if err := n.ReserveBackup(1, 0, lower, upper.Links, 100); err == nil {
		t.Fatal("duplicate backup accepted")
	}
}

func TestReleaseBackupRestoresSpare(t *testing.T) {
	n, upper, lower := testNet(t, 1000)
	mustOK(t, n.ReservePrimary(1, 1, dirLinks(n, upper), 100))
	mustOK(t, n.ReserveBackup(1, 0, lower, upper.Links, 100))
	if n.Spare(fwd(lower.Links[0])) != 100 {
		t.Fatal("spare not registered")
	}
	mustOK(t, n.ReleaseBackup(1, lower))
	for _, l := range lower.Links {
		if n.Spare(fwd(l)) != 0 {
			t.Fatalf("spare left on link %d", l)
		}
	}
	checkInv(t, n)
	if err := n.ReleaseBackup(1, lower); !errors.Is(err, ErrUnknownConn) {
		t.Fatalf("double release: %v", err)
	}
}

func TestActivateBackup(t *testing.T) {
	n, upper, lower := testNet(t, 1000)
	mustOK(t, n.ReservePrimary(1, 1, dirLinks(n, upper), 100))
	mustOK(t, n.ReserveBackup(1, 0, lower, upper.Links, 100))
	// Primary link fails; manager releases the primary and activates.
	n.SetFailed(upper.Links[1], true)
	mustOK(t, n.ReleasePrimary(1, dirLinks(n, upper)))
	mustOK(t, n.ActivateBackup(1, 1, lower))
	for _, l := range lower.Links {
		if n.Grant(fwd(l), 1) != 100 {
			t.Fatalf("activated grant on link %d = %v", l, n.Grant(fwd(l), 1))
		}
		if n.Spare(fwd(l)) != 0 {
			t.Fatalf("spare not released on link %d", l)
		}
	}
	checkInv(t, n)
	if err := n.ActivateBackup(1, 1, lower); !errors.Is(err, ErrUnknownConn) {
		t.Fatalf("double activation: %v", err)
	}
}

func TestActivateBackupCapacityBlocked(t *testing.T) {
	n, upper, lower := testNet(t, 200)
	mustOK(t, n.ReservePrimary(1, 1, dirLinks(n, upper), 100))
	mustOK(t, n.ReserveBackup(1, 0, lower, upper.Links, 100))
	// Fill the lower route's physical capacity with grown primaries.
	mustOK(t, n.ReservePrimary(2, 2, dirLinks(n, lower), 100))
	mustOK(t, n.AdjustPrimary(2, dirLinks(n, lower), 200)) // borrows the spare
	checkInv(t, n)
	if err := n.ActivateBackup(1, 1, lower); !errors.Is(err, ErrCapacity) {
		t.Fatalf("err = %v (manager must squeeze first)", err)
	}
	// After squeezing conn 2 back to its minimum, activation succeeds.
	mustOK(t, n.AdjustPrimary(2, dirLinks(n, lower), 100))
	mustOK(t, n.ActivateBackup(1, 1, lower))
	checkInv(t, n)
}

func TestPrimariesAndBackupsOnSorted(t *testing.T) {
	n, upper, lower := testNet(t, 10000)
	// Reserved in descending ID order: the lists must come out ascending,
	// each entry carrying the slot it was reserved with.
	for id := channel.ConnID(5); id >= 1; id-- {
		mustOK(t, n.ReservePrimary(id, int32(10*id), dirLinks(n, upper), 100))
		mustOK(t, n.ReserveBackup(id, 0, lower, upper.Links, 100))
	}
	mustOK(t, n.AdjustPrimary(3, dirLinks(n, upper), 250))
	prim := n.PrimariesOn(fwd(upper.Links[0]))
	if len(prim) != 5 {
		t.Fatalf("primaries = %v", prim)
	}
	for i, r := range prim {
		want := Reservation{ID: channel.ConnID(i + 1), Grant: 100, Min: 100, Slot: int32(10 * (i + 1))}
		if r.ID == 3 {
			want.Grant = 250
		}
		if r != want {
			t.Fatalf("primaries[%d] = %+v, want %+v", i, r, want)
		}
	}
	backs := n.BackupsOn(fwd(lower.Links[0]))
	if len(backs) != 5 {
		t.Fatalf("backups = %v", backs)
	}
	for i, b := range backs {
		if b.ID != channel.ConnID(i+1) || b.Min != 100 {
			t.Fatalf("backups[%d] = %+v", i, b)
		}
	}
	// Activation moves an entry from one list to the other, in order.
	mustOK(t, n.ReleasePrimary(4, dirLinks(n, upper)))
	mustOK(t, n.ActivateBackup(4, 44, lower))
	if got := n.PrimariesOn(fwd(lower.Links[0])); len(got) != 1 || got[0] != (Reservation{ID: 4, Grant: 100, Min: 100, Slot: 44}) {
		t.Fatalf("activated primaries = %+v", got)
	}
	if got := n.BackupsOn(fwd(lower.Links[0])); len(got) != 4 || got[2].ID != 3 || got[3].ID != 5 {
		t.Fatalf("backups after activation = %+v", got)
	}
	checkInv(t, n)
}

// ledgerScenario drives one seeded random sequence of reserve, adjust,
// release and backup-activation operations against a fresh ledger, checking
// the invariants after every step. Individual operations may be refused;
// the ledger must stay consistent regardless. It returns the trajectory (op
// and connection per step) and an error naming the step and op that broke.
func ledgerScenario(seed uint64) (string, error) {
	src := rng.New(seed)
	g, err := topology.Waxman(topology.WaxmanConfig{
		Nodes: 12, Alpha: 0.5, Beta: 0.4, EnsureConnected: true,
	}, src)
	if err != nil {
		return "", err
	}
	n, err := New(g, 500)
	if err != nil {
		return "", err
	}
	type live struct {
		route  routing.Path
		backup routing.Path
		hasB   bool
		grant  qos.Kbps
	}
	conns := map[channel.ConnID]*live{}
	nextID := channel.ConnID(1)
	// pick returns a deterministic pseudo-random live connection.
	pick := func() (channel.ConnID, *live) {
		if len(conns) == 0 {
			return 0, nil
		}
		ids := make([]channel.ConnID, 0, len(conns))
		for id := range conns {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		id := ids[src.Intn(len(ids))]
		return id, conns[id]
	}
	var trail strings.Builder
	for step := 0; step < 120; step++ {
		op := src.Intn(4)
		var (
			id channel.ConnID
			c  *live
		)
		fail := func(what string, err error) (string, error) {
			return trail.String(), fmt.Errorf("step %d (op %d, conn %d): %s: %w", step, op, id, what, err)
		}
		switch op {
		case 0: // establish
			a := topology.NodeID(src.Intn(g.NumNodes()))
			b := topology.NodeID(src.Intn(g.NumNodes()))
			if a == b {
				continue
			}
			p, err := routing.ShortestHops(g, a, b, nil)
			if err != nil {
				continue
			}
			if n.ReservePrimary(nextID, int32(nextID), dirLinks(n, p), 100) != nil {
				continue
			}
			c = &live{route: p, grant: 100}
			if bk, _, err := routing.BackupRoute(g, p, nil); err == nil {
				if n.ReserveBackup(nextID, 0, bk, p.Links, 100) == nil {
					c.backup, c.hasB = bk, true
				}
			}
			id = nextID
			conns[id] = c
			nextID++
		case 1: // adjust someone
			if id, c = pick(); c != nil {
				ng := qos.Kbps(100 + 50*src.Intn(9))
				if n.AdjustPrimary(id, dirLinks(n, c.route), ng) == nil {
					c.grant = ng
				}
			}
		case 2: // terminate someone
			if id, c = pick(); c != nil {
				if err := n.ReleasePrimary(id, dirLinks(n, c.route)); err != nil {
					return fail("release primary", err)
				}
				if c.hasB {
					if err := n.ReleaseBackup(id, c.backup); err != nil {
						return fail("release backup", err)
					}
				}
				delete(conns, id)
			}
		case 3: // activate someone's backup
			id, c = pick()
			if c == nil || !c.hasB {
				break
			}
			// Squeeze every primary on the backup's links to its
			// minimum, then activate.
			for _, d := range c.backup.DirLinks(g) {
				for _, r := range n.PrimariesOn(d) {
					if pc, ok := conns[r.ID]; ok {
						if n.AdjustPrimary(r.ID, dirLinks(n, pc.route), 100) == nil {
							pc.grant = 100
						}
					}
				}
			}
			if err := n.ReleasePrimary(id, dirLinks(n, c.route)); err != nil {
				return fail("pre-activation release", err)
			}
			if n.ActivateBackup(id, int32(id), c.backup) != nil {
				// Physically impossible even after squeeze: the conn is
				// dropped.
				if err := n.ReleaseBackup(id, c.backup); err != nil {
					return fail("release unactivatable backup", err)
				}
				delete(conns, id)
				break
			}
			c.route = c.backup
			c.backup = routing.Path{}
			c.hasB = false
			c.grant = 100
		}
		fmt.Fprintf(&trail, "%d:%d ", op, id)
		if err := n.CheckInvariants(); err != nil {
			return fail("invariants", err)
		}
	}
	return trail.String(), nil
}

// Property: random sequences of reserve/adjust/release/backup operations
// never violate the ledger invariants, regardless of individual op failures.
func TestQuickLedgerInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		if _, err := ledgerScenario(seed); err != nil {
			t.Logf("seed %#x: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
	// The seed that first exposed an invariant break, replayed twice: the
	// scenario is a function of the seed, so both runs take one trajectory.
	t.Run("seed=0x876409b776027228", func(t *testing.T) {
		first, err := ledgerScenario(0x876409b776027228)
		if err != nil {
			t.Fatal(err)
		}
		if again, _ := ledgerScenario(0x876409b776027228); again != first {
			t.Fatalf("replay diverged:\n%s\nvs\n%s", first, again)
		}
	})
}

func TestSetMultiplexing(t *testing.T) {
	n, upper, lower := testNet(t, 1000)
	if err := n.SetMultiplexing(false); err != nil {
		t.Fatal(err)
	}
	mustOK(t, n.ReservePrimary(1, 1, dirLinks(n, upper), 100))
	mustOK(t, n.ReservePrimary(2, 2, dirLinks(n, lower), 100))
	mustOK(t, n.ReserveBackup(1, 0, lower, upper.Links, 100))
	mustOK(t, n.ReserveBackup(2, 0, upper, lower.Links, 100))
	checkInv(t, n)
	// Without multiplexing, a second upper-primary backup on lower links
	// ADDS spare instead of sharing it.
	mustOK(t, n.ReservePrimary(3, 3, dirLinks(n, upper), 100))
	mustOK(t, n.ReserveBackup(3, 0, lower, upper.Links, 100))
	checkInv(t, n)
	if got := n.Spare(fwd(lower.Links[0])); got != 200 {
		t.Fatalf("no-mux spare = %v, want 200 (sum)", got)
	}
	// Flipping the mode with live backups is refused.
	if err := n.SetMultiplexing(true); err == nil {
		t.Fatal("mode change with live backups accepted")
	}
	mustOK(t, n.ReleaseBackup(1, lower))
	mustOK(t, n.ReleaseBackup(2, upper))
	mustOK(t, n.ReleaseBackup(3, lower))
	if err := n.SetMultiplexing(true); err != nil {
		t.Fatal(err)
	}
}

func TestDependabilityDeficit(t *testing.T) {
	n, upper, lower := testNet(t, 300)
	mustOK(t, n.ReservePrimary(1, 1, dirLinks(n, upper), 100))
	mustOK(t, n.ReserveBackup(1, 0, lower, upper.Links, 100))
	mustOK(t, n.ReservePrimary(2, 2, dirLinks(n, lower), 100))
	if d := n.DependabilityDeficit(); len(d) != 0 {
		t.Fatalf("quiescent deficit: %v", d)
	}
	// Activate conn 1's backup: its minimum joins lower's minSum while
	// conn 2... has no backup, so spare on lower drops to 0 — still no
	// deficit. Force one instead: register a second backup on lower whose
	// primary overlaps conn 1's, then activate conn 1.
	mustOK(t, n.ReservePrimary(3, 3, dirLinks(n, upper), 100))
	mustOK(t, n.ReserveBackup(3, 0, lower, upper.Links, 100))
	n.SetFailed(upper.Links[0], true)
	mustOK(t, n.ReleasePrimary(1, dirLinks(n, upper)))
	mustOK(t, n.ActivateBackup(1, 1, lower))
	// lower links: minSum = 100 (conn2) + 100 (activated conn1) = 200;
	// spare still 100 for conn3's backup → 300 = capacity: no deficit yet.
	if d := n.DependabilityDeficit(); len(d) != 0 {
		t.Fatalf("deficit too early: %v", d)
	}
	// One more primary fills the link past the reserve rule.
	n.SetFailed(upper.Links[0], false)
	if err := n.ReservePrimary(4, 4, dirLinks(n, lower), 100); err == nil {
		t.Fatal("admission should refuse: minima+spare would exceed capacity")
	}
	// Bypass admission legitimately via activation: conn 3 fails over too.
	n.SetFailed(upper.Links[1], true)
	mustOK(t, n.ReleasePrimary(3, dirLinks(n, upper)))
	// Squeeze not needed (everyone at min); activation must succeed
	// physically (300 capacity, 200 granted, +100 fits).
	mustOK(t, n.ActivateBackup(3, 3, lower))
	// Now lower minSum=300=capacity with zero spare: no deficit. The rule
	// is about minSum+spare, so create spare pressure: register a backup
	// for conn 2 (primary lower) over upper... upper.Links[1] failed;
	// repair first.
	n.SetFailed(upper.Links[1], false)
	mustOK(t, n.ReserveBackup(2, 0, upper, lower.Links, 100))
	// Upper links: minSum=0, spare=100 → fine. Lower unchanged. Verify the
	// ledger still internally consistent and deficit-free.
	checkInv(t, n)
	if d := n.DependabilityDeficit(); len(d) != 0 {
		t.Fatalf("unexpected deficit: %v", d)
	}
}

func TestDependabilityDeficitAfterActivation(t *testing.T) {
	n, upper, lower := testNet(t, 200)
	g := n.Graph()
	// A: primary upper, backup lower (whole route).
	mustOK(t, n.ReservePrimary(1, 1, dirLinks(n, upper), 100))
	mustOK(t, n.ReserveBackup(1, 0, lower, upper.Links, 100))
	// B: primary lower at its minimum.
	mustOK(t, n.ReservePrimary(2, 2, dirLinks(n, lower), 100))
	// C: primary 1→3 (the chord, disjoint from A's primary so the backups
	// may multiplex), backup 1→0→3 crossing lower's first link.
	linkBetween := func(a, b topology.NodeID) (id topology.LinkID) {
		g.ForEachNeighbor(a, func(peer topology.NodeID, l topology.LinkID) {
			if peer == b {
				id = l
			}
		})
		return id
	}
	l01, l13, l03 := linkBetween(0, 1), linkBetween(1, 3), linkBetween(0, 3)
	cPrimary := routing.Path{Nodes: []topology.NodeID{1, 3}, Links: []topology.LinkID{l13}}
	cBackup := routing.Path{Nodes: []topology.NodeID{1, 0, 3}, Links: []topology.LinkID{l01, l03}}
	mustOK(t, n.ReservePrimary(3, 3, dirLinks(n, cPrimary), 100))
	mustOK(t, n.ReserveBackup(3, 0, cBackup, cPrimary.Links, 100))
	if d := n.DependabilityDeficit(); len(d) != 0 {
		t.Fatalf("quiescent deficit: %v", d)
	}
	// Upper fails; A activates onto lower. On l03 (forward): minima are
	// now A(100)+B(100) = 200 = capacity, while C's backup still counts
	// 100 spare there → deficit until protection is re-planned.
	n.SetFailed(upper.Links[1], true)
	mustOK(t, n.ReleasePrimary(1, dirLinks(n, upper)))
	mustOK(t, n.ActivateBackup(1, 1, lower))
	checkInv(t, n) // ledger stays consistent even in deficit
	deficit := n.DependabilityDeficit()
	found := false
	for _, d := range deficit {
		if d.Link() == l03 {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected deficit on link %d, got %v", l03, deficit)
	}
}

// TestInvariantsCanFail injects one corruption per clause of CheckInvariants
// and requires the audit to name it; the untouched ledger passes.
func TestInvariantsCanFail(t *testing.T) {
	// build returns a ledger with primaries 1–3 on upper (3 grown) and
	// their backups on lower, plus the first directed link of each route.
	build := func(t *testing.T) (n *Network, up, low *dirState) {
		n, upper, lower := testNet(t, 10000)
		for id := channel.ConnID(1); id <= 3; id++ {
			mustOK(t, n.ReservePrimary(id, int32(id), dirLinks(n, upper), 100))
			mustOK(t, n.ReserveBackup(id, 0, lower, upper.Links, 100))
		}
		mustOK(t, n.AdjustPrimary(3, dirLinks(n, upper), 300))
		checkInv(t, n)
		return n, &n.dirs[fwd(upper.Links[0])], &n.dirs[fwd(lower.Links[0])]
	}
	cases := []struct {
		clause  string
		corrupt func(up, low *dirState)
		want    string
	}{
		{"primaries out of order", func(up, _ *dirState) {
			up.primaries[0], up.primaries[1] = up.primaries[1], up.primaries[0]
		}, "primaries not strictly ascending"},
		{"a primary entered twice", func(up, _ *dirState) {
			// Sums kept honest, so only the duplicate is wrong.
			up.primaries = slices.Insert(up.primaries, 1, up.primaries[0])
			up.grantSum += up.primaries[0].Grant
			up.minSum += up.primaries[0].Min
		}, "primaries not strictly ascending"},
		{"grant below minimum", func(up, _ *dirState) {
			up.primaries[2].Grant, up.grantSum = 50, up.grantSum-250
		}, "below min"},
		{"grant sum drifted", func(up, _ *dirState) { up.grantSum += 50 }, "cached grantSum"},
		{"min sum drifted", func(up, _ *dirState) { up.minSum -= 100 }, "cached minSum"},
		{"an entry dropped, sums left behind", func(up, _ *dirState) {
			up.primaries = slices.Delete(up.primaries, 1, 2)
		}, "cached grantSum"},
		{"a stale link-set bit", func(up, _ *dirState) {
			// A slot no primary on the link holds.
			up.slots.Add(60)
		}, "slot set holds 4 slots for 3 primaries"},
		{"a missing link-set bit", func(up, _ *dirState) {
			// Swapped for a stale one, so the count alone passes.
			up.slots.Remove(up.primaries[1].Slot)
			up.slots.Add(60)
		}, "slot set lacks slot 2 of conn 2"},
		{"backups out of order", func(_, low *dirState) {
			low.backups[1], low.backups[2] = low.backups[2], low.backups[1]
		}, "backups not strictly ascending"},
		{"a backup dropped, conflicts left behind", func(_, low *dirState) {
			low.backups = slices.Delete(low.backups, 0, 1)
		}, "conflict["},
		{"a stale conflict entry", func(_, low *dirState) {
			// The last link is the 1–3 chord: no primary crosses it, so no
			// backup here protects it. Below the spare, so only the entry
			// is wrong.
			low.conflict[len(low.conflict)-1] = 100
		}, "conflict["},
		{"spare drifted", func(_, low *dirState) { low.spare += 100 }, "cached spare"},
	}
	for _, tc := range cases {
		t.Run(tc.clause, func(t *testing.T) {
			n, up, low := build(t)
			tc.corrupt(up, low)
			err := n.CheckInvariants()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("audit said %v, want a complaint containing %q", err, tc.want)
			}
		})
	}
}
