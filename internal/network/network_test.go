package network

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"

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

// fwd returns the forward (A→B) direction of a physical link; every fixture
// route in this file traverses its links forward.
func fwd(l topology.LinkID) topology.DirLinkID { return topology.DirLinkID(2 * l) }

// dirLinks is p as the ledger's operations take it: its directed links.
func dirLinks(n *Network, p routing.Path) []topology.DirLinkID { return p.DirLinks(n.Graph()) }

// book is a test's own record of what each slot holds on a ledger, kept
// through the same operations: the truth CheckInvariants recomputes the
// ledger from, and the amounts the operations take.
type book struct {
	n    *Network
	held map[int32]*entry
}

type entry struct {
	primary    []topology.DirLinkID
	grant, min qos.Kbps
	backup     []topology.DirLinkID
	protects   []topology.LinkID // the primary the backup was registered for
	hasPrimary bool
}

func newBook(n *Network) *book { return &book{n: n, held: map[int32]*entry{}} }

func (b *book) reserve(slot int32, p routing.Path, min qos.Kbps) error {
	dirs := dirLinks(b.n, p)
	if err := b.n.ReservePrimary(slot, dirs, min); err != nil {
		return err
	}
	b.held[slot] = &entry{primary: dirs, grant: min, min: min, hasPrimary: true}
	return nil
}

func (b *book) adjust(slot int32, to qos.Kbps) error {
	e := b.held[slot]
	if err := b.n.AdjustPrimary(e.primary, e.grant, to); err != nil {
		return err
	}
	e.grant = to
	return nil
}

// release gives up slot's primary; a backup it holds stays registered for
// the primary it had.
func (b *book) release(slot int32) error {
	e := b.held[slot]
	if err := b.n.ReleasePrimary(slot, e.primary, e.grant, e.min); err != nil {
		return err
	}
	e.hasPrimary = false
	if e.backup == nil {
		delete(b.held, slot)
	}
	return nil
}

func (b *book) reserveBackup(slot int32, p routing.Path) error {
	e := b.held[slot]
	dirs, links := dirLinks(b.n, p), linksOf(e.primary)
	if err := b.n.ReserveBackup(slot, dirs, links, e.min); err != nil {
		return err
	}
	e.backup, e.protects = dirs, links
	return nil
}

func (b *book) releaseBackup(slot int32) error {
	e := b.held[slot]
	if err := b.n.ReleaseBackup(slot, e.backup, e.protects, e.min); err != nil {
		return err
	}
	e.backup, e.protects = nil, nil
	if !e.hasPrimary {
		delete(b.held, slot)
	}
	return nil
}

// activate turns slot's backup into its primary at its minimum; the caller
// has released the old primary.
func (b *book) activate(slot int32) error {
	e := b.held[slot]
	if err := b.n.ActivateBackup(slot, e.backup, e.protects, e.min); err != nil {
		return err
	}
	*e = entry{primary: e.backup, grant: e.min, min: e.min, hasPrimary: true}
	return nil
}

// holdings lists the book in slot order, as CheckInvariants takes it.
func (b *book) holdings() ([]Holding, error) {
	slots := make([]int32, 0, len(b.held))
	for s := range b.held {
		slots = append(slots, s)
	}
	slices.Sort(slots)
	out := make([]Holding, 0, len(slots))
	for _, s := range slots {
		e := b.held[s]
		if !e.hasPrimary {
			return nil, fmt.Errorf("slot %d holds a backup without its primary", s)
		}
		out = append(out, Holding{Slot: s, Primary: e.primary, Grant: e.grant, Min: e.min, Backup: e.backup})
	}
	return out, nil
}

func (b *book) check(t *testing.T) {
	t.Helper()
	held, err := b.holdings()
	if err != nil {
		t.Fatal(err)
	}
	if err := b.n.CheckInvariants(held); err != nil {
		t.Fatalf("invariant violated: %v", err)
	}
}

func linksOf(dirs []topology.DirLinkID) []topology.LinkID {
	out := make([]topology.LinkID, len(dirs))
	for i, d := range dirs {
		out[i] = d.Link()
	}
	return out
}

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
	b := newBook(n)
	mustOK(t, b.reserve(1, upper, 100))
	for _, l := range upper.Links {
		if !n.SlotsOn(fwd(l)).Has(1) {
			t.Fatalf("slot 1 not entered on link %d", l)
		}
		if n.GrantSum(fwd(l)) != 100 || n.MinSum(fwd(l)) != 100 {
			t.Fatalf("sums on link %d: %v/%v", l, n.GrantSum(fwd(l)), n.MinSum(fwd(l)))
		}
		// The reverse direction is untouched: channels are unidirectional.
		rev := topology.DirLinkID(2*l + 1)
		if n.GrantSum(rev) != 0 || n.SlotsOn(rev).Count() != 0 {
			t.Fatalf("reverse direction of link %d carries %v", l, n.GrantSum(rev))
		}
	}
	b.check(t)
	// Duplicate reservation must fail atomically.
	if err := n.ReservePrimary(1, dirLinks(n, upper), 100); err == nil {
		t.Fatal("duplicate accepted")
	}
	b.check(t)
}

func TestReservePrimaryCapacityLimit(t *testing.T) {
	n, upper, _ := testNet(t, 250)
	b := newBook(n)
	mustOK(t, b.reserve(1, upper, 100))
	mustOK(t, b.reserve(2, upper, 100))
	err := b.reserve(3, upper, 100)
	if !errors.Is(err, ErrCapacity) {
		t.Fatalf("err = %v, want ErrCapacity", err)
	}
	b.check(t)
	if n.CanAdmitPrimary(upper, 100) {
		t.Fatal("CanAdmitPrimary disagrees with ReservePrimary")
	}
	if !n.CanAdmitPrimary(upper, 50) {
		t.Fatal("50Kbps should fit in the remaining headroom")
	}
}

func TestReservePrimaryRejectsNonPositive(t *testing.T) {
	n, upper, _ := testNet(t, 1000)
	if err := n.ReservePrimary(1, dirLinks(n, upper), 0); err == nil {
		t.Fatal("zero reservation accepted")
	}
}

func TestReservePrimaryOnFailedLink(t *testing.T) {
	n, upper, _ := testNet(t, 1000)
	n.SetFailed(upper.Links[1], true)
	if err := n.ReservePrimary(1, dirLinks(n, upper), 100); !errors.Is(err, ErrLinkFailed) {
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
	b := newBook(n)
	mustOK(t, b.reserve(1, upper, 100))
	mustOK(t, b.adjust(1, 500))
	for _, l := range upper.Links {
		if n.GrantSum(fwd(l)) != 500 {
			t.Fatalf("grow failed on link %d", l)
		}
		if n.MinSum(fwd(l)) != 100 {
			t.Fatalf("min changed on grow: %v", n.MinSum(fwd(l)))
		}
	}
	b.check(t)
	mustOK(t, b.adjust(1, 100))
	b.check(t)
	// Below the link's minima is rejected, and nothing moves.
	if err := b.adjust(1, 50); err == nil {
		t.Fatal("grant below min accepted")
	}
	b.check(t)
}

func TestAdjustPrimaryCapacityCeiling(t *testing.T) {
	n, upper, _ := testNet(t, 1000)
	b := newBook(n)
	mustOK(t, b.reserve(1, upper, 100))
	mustOK(t, b.reserve(2, upper, 100))
	// 800 free: conn 1 can grow to 900, filling the links exactly.
	mustOK(t, b.adjust(1, 900))
	if err := b.adjust(2, 200); !errors.Is(err, ErrCapacity) {
		t.Fatalf("err = %v", err)
	}
	b.check(t)
	if n.FreeForGrowth(fwd(upper.Links[0])) != 0 {
		t.Fatalf("free = %v", n.FreeForGrowth(fwd(upper.Links[0])))
	}
}

func TestReleasePrimary(t *testing.T) {
	n, upper, _ := testNet(t, 1000)
	b := newBook(n)
	mustOK(t, b.reserve(1, upper, 100))
	mustOK(t, b.adjust(1, 300))
	mustOK(t, b.release(1))
	for _, l := range upper.Links {
		if n.GrantSum(fwd(l)) != 0 || n.MinSum(fwd(l)) != 0 || n.SlotsOn(fwd(l)).Count() != 0 {
			t.Fatalf("release left residue on link %d", l)
		}
	}
	b.check(t)
	if err := n.ReleasePrimary(1, dirLinks(n, upper), 300, 100); !errors.Is(err, ErrUnknownConn) {
		t.Fatalf("double release: %v", err)
	}
}

// TestLoadFreeForGrowth: the one-pass loads agree with FreeForGrowth and
// AdmissionHeadroom link by link, a failed link and a backup's spare
// included.
func TestLoadFreeForGrowth(t *testing.T) {
	n, upper, lower := testNet(t, 1000)
	b := newBook(n)
	mustOK(t, b.reserve(1, upper, 100))
	mustOK(t, b.adjust(1, 300))
	mustOK(t, b.reserveBackup(1, lower))
	mustOK(t, b.reserve(2, lower, 100))
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
	b := newBook(n)
	// Conn 1: primary upper, backup lower; conn 2: primary lower, backup
	// upper. Their backups live on different routes.
	mustOK(t, b.reserve(1, upper, 100))
	mustOK(t, b.reserveBackup(1, lower))
	b.check(t)

	mustOK(t, b.reserve(2, lower, 100))
	mustOK(t, b.reserveBackup(2, upper))
	b.check(t)

	// Backup of conn 3 (primary on upper) multiplexes with backup of conn
	// 1 (also primary on upper): they activate together on a shared-upper
	// failure, so spare on lower links must be 200 for upper failures.
	mustOK(t, b.reserve(3, upper, 100))
	mustOK(t, b.reserveBackup(3, lower))
	b.check(t)
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
	b := newBook(n)
	p1 := routing.Path{Nodes: []topology.NodeID{0, 1}, Links: []topology.LinkID{lA}}
	p2 := routing.Path{Nodes: []topology.NodeID{2, 3}, Links: []topology.LinkID{lB}}
	b1 := routing.Path{Nodes: []topology.NodeID{0, 2, 1}, Links: []topology.LinkID{l0, lS}}
	b2 := routing.Path{Nodes: []topology.NodeID{2, 1, 3}, Links: []topology.LinkID{lS, l1}}
	mustOK(t, b.reserve(1, p1, 100))
	mustOK(t, b.reserve(2, p2, 100))
	mustOK(t, b.reserveBackup(1, b1))
	mustOK(t, b.reserveBackup(2, b2))
	b.check(t)
	if got := n.Spare(n.Graph().DirID(lS, 2)); got != 100 {
		t.Fatalf("spare on shared backup link = %v, want 100 (multiplexed)", got)
	}
}

func TestBackupAdmissionBlocksConflictOverflow(t *testing.T) {
	// Capacity 250: two conflicting backups (same primary link) need 200
	// spare, which fits beside a 100 minimum only where no primary is.
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
	b := newBook(n)
	primary := routing.Path{Nodes: []topology.NodeID{0, 1}, Links: []topology.LinkID{lP}}
	backup := routing.Path{Nodes: []topology.NodeID{0, 2, 1}, Links: []topology.LinkID{lQ, lS}}
	mustOK(t, b.reserve(1, primary, 100))
	mustOK(t, b.reserve(2, primary, 100))
	mustOK(t, b.reserveBackup(1, backup))
	b.check(t)
	// Load lS with a primary: its minimum plus a 200 spare exceeds 250.
	short := routing.Path{Nodes: []topology.NodeID{2, 1}, Links: []topology.LinkID{lS}}
	mustOK(t, b.reserve(3, short, 100))
	if n.CanAdmitBackup(dirLinks(n, backup), primary.Links, 100) {
		t.Fatal("conflicting backup admitted beyond capacity")
	}
	if err := b.reserveBackup(2, backup); !errors.Is(err, ErrCapacity) {
		t.Fatalf("err = %v", err)
	}
	b.check(t)
}

func TestReserveBackupValidation(t *testing.T) {
	n, upper, lower := testNet(t, 1000)
	b := newBook(n)
	mustOK(t, b.reserve(1, upper, 100))
	if err := n.ReserveBackup(1, dirLinks(n, lower), upper.Links, 0); err == nil {
		t.Fatal("zero backup min accepted")
	}
	if err := n.ReserveBackup(1, dirLinks(n, lower), nil, 100); err == nil {
		t.Fatal("backup without primary links accepted")
	}
	mustOK(t, b.reserveBackup(1, lower))
	if err := n.ReserveBackup(1, dirLinks(n, lower), upper.Links, 100); err == nil {
		t.Fatal("duplicate backup accepted")
	}
	b.check(t)
}

func TestReleaseBackupRestoresSpare(t *testing.T) {
	n, upper, lower := testNet(t, 1000)
	b := newBook(n)
	mustOK(t, b.reserve(1, upper, 100))
	mustOK(t, b.reserveBackup(1, lower))
	if n.Spare(fwd(lower.Links[0])) != 100 {
		t.Fatal("spare not registered")
	}
	mustOK(t, b.releaseBackup(1))
	for _, l := range lower.Links {
		if n.Spare(fwd(l)) != 0 || n.BackupSlotsOn(fwd(l)).Count() != 0 {
			t.Fatalf("spare left on link %d", l)
		}
	}
	b.check(t)
	if err := n.ReleaseBackup(1, dirLinks(n, lower), upper.Links, 100); !errors.Is(err, ErrUnknownConn) {
		t.Fatalf("double release: %v", err)
	}
}

func TestActivateBackup(t *testing.T) {
	n, upper, lower := testNet(t, 1000)
	b := newBook(n)
	mustOK(t, b.reserve(1, upper, 100))
	mustOK(t, b.reserveBackup(1, lower))
	// Primary link fails; manager releases the primary and activates.
	n.SetFailed(upper.Links[1], true)
	mustOK(t, b.release(1))
	mustOK(t, b.activate(1))
	for _, l := range lower.Links {
		if n.GrantSum(fwd(l)) != 100 || !n.SlotsOn(fwd(l)).Has(1) {
			t.Fatalf("activated grant on link %d = %v", l, n.GrantSum(fwd(l)))
		}
		if n.Spare(fwd(l)) != 0 || n.BackupSlotsOn(fwd(l)).Has(1) {
			t.Fatalf("spare not released on link %d", l)
		}
	}
	b.check(t)
	if err := n.ActivateBackup(1, dirLinks(n, lower), upper.Links, 100); !errors.Is(err, ErrUnknownConn) {
		t.Fatalf("double activation: %v", err)
	}
}

func TestActivateBackupCapacityBlocked(t *testing.T) {
	n, upper, lower := testNet(t, 200)
	b := newBook(n)
	mustOK(t, b.reserve(1, upper, 100))
	mustOK(t, b.reserveBackup(1, lower))
	// Fill the lower route's physical capacity with grown primaries.
	mustOK(t, b.reserve(2, lower, 100))
	mustOK(t, b.adjust(2, 200)) // borrows the spare
	b.check(t)
	mustOK(t, b.release(1))
	if err := b.activate(1); !errors.Is(err, ErrCapacity) {
		t.Fatalf("err = %v (manager must squeeze first)", err)
	}
	// After squeezing conn 2 back to its minimum, activation succeeds.
	mustOK(t, b.adjust(2, 100))
	mustOK(t, b.activate(1))
	b.check(t)
}

// TestSlotSetsFollowReservations: each link's two sets hold exactly the
// slots reserved there, whatever order they came in, and an activation
// moves a slot from the backup set to the primary set.
func TestSlotSetsFollowReservations(t *testing.T) {
	n, upper, lower := testNet(t, 10000)
	b := newBook(n)
	for s := int32(50); s >= 10; s -= 10 {
		mustOK(t, b.reserve(s, upper, 100))
		mustOK(t, b.reserveBackup(s, lower))
	}
	mustOK(t, b.adjust(30, 250))
	want := []int32{10, 20, 30, 40, 50}
	if got := n.SlotsOn(fwd(upper.Links[0])).AppendMembers(nil); !slices.Equal(got, want) {
		t.Fatalf("primary slots = %v, want %v", got, want)
	}
	if got := n.BackupSlotsOn(fwd(lower.Links[0])).AppendMembers(nil); !slices.Equal(got, want) {
		t.Fatalf("backup slots = %v, want %v", got, want)
	}
	if n.GrantSum(fwd(upper.Links[0])) != 650 || n.MinSum(fwd(upper.Links[0])) != 500 {
		t.Fatalf("sums %v/%v", n.GrantSum(fwd(upper.Links[0])), n.MinSum(fwd(upper.Links[0])))
	}
	mustOK(t, b.release(40))
	mustOK(t, b.activate(40))
	if got := n.SlotsOn(fwd(lower.Links[0])).AppendMembers(nil); !slices.Equal(got, []int32{40}) {
		t.Fatalf("activated primaries = %v", got)
	}
	if got := n.BackupSlotsOn(fwd(lower.Links[0])).AppendMembers(nil); !slices.Equal(got, []int32{10, 20, 30, 50}) {
		t.Fatalf("backups after activation = %v", got)
	}
	b.check(t)
	// Renumbering closes the gap 40 left on upper.
	to := make([]int32, 51)
	for s, r := range map[int32]int32{10: 0, 20: 1, 30: 2, 40: 3, 50: 4} {
		to[s] = r
	}
	n.RenumberSlots(to)
	if got := n.SlotsOn(fwd(upper.Links[0])).AppendMembers(nil); !slices.Equal(got, []int32{0, 1, 2, 4}) {
		t.Fatalf("renumbered primaries = %v", got)
	}
	if got := n.BackupSlotsOn(fwd(lower.Links[0])).AppendMembers(nil); !slices.Equal(got, []int32{0, 1, 2, 4}) {
		t.Fatalf("renumbered backups = %v", got)
	}
}

// ledgerScenario drives one seeded random sequence of reserve, adjust,
// release and backup-activation operations against a fresh ledger, checking
// the invariants after every step. Individual operations may be refused;
// the ledger must stay consistent regardless. It returns the trajectory (op
// and slot per step) and an error naming the step and op that broke.
func ledgerScenario(seed uint64) (string, error) {
	src := rng.New(seed)
	g, err := topology.Waxman(topology.WaxmanConfig{
		Nodes: 12, Alpha: 0.5, Beta: 0.4,
	}, src)
	if err != nil {
		return "", err
	}
	n, err := New(g, 500)
	if err != nil {
		return "", err
	}
	b := newBook(n)
	type live struct {
		route  routing.Path
		backup routing.Path
	}
	conns := map[int32]*live{}
	next := int32(1)
	// pick returns a deterministic pseudo-random live slot.
	pick := func() (int32, *live) {
		if len(conns) == 0 {
			return 0, nil
		}
		slots := make([]int32, 0, len(conns))
		for s := range conns {
			slots = append(slots, s)
		}
		slices.Sort(slots)
		s := slots[src.Intn(len(slots))]
		return s, conns[s]
	}
	var trail strings.Builder
	for step := 0; step < 120; step++ {
		op := src.Intn(4)
		var (
			s int32
			c *live
		)
		fail := func(what string, err error) (string, error) {
			return trail.String(), fmt.Errorf("step %d (op %d, slot %d): %s: %w", step, op, s, what, err)
		}
		switch op {
		case 0: // establish
			a := topology.NodeID(src.Intn(g.NumNodes()))
			z := topology.NodeID(src.Intn(g.NumNodes()))
			if a == z {
				continue
			}
			p, err := routing.ShortestHops(g, a, z, nil)
			if err != nil {
				continue
			}
			if b.reserve(next, p, 100) != nil {
				continue
			}
			c = &live{route: p}
			if bk, _, err := routing.BackupRoute(g, p, nil); err == nil {
				if b.reserveBackup(next, bk) == nil {
					c.backup = bk
				}
			}
			s = next
			conns[s] = c
			next++
		case 1: // adjust someone
			if s, c = pick(); c != nil {
				_ = b.adjust(s, qos.Kbps(100+50*src.Intn(9)))
			}
		case 2: // terminate someone
			if s, c = pick(); c != nil {
				if err := b.release(s); err != nil {
					return fail("release primary", err)
				}
				if b.held[s] != nil {
					if err := b.releaseBackup(s); err != nil {
						return fail("release backup", err)
					}
				}
				delete(conns, s)
			}
		case 3: // activate someone's backup
			s, c = pick()
			if c == nil || b.held[s].backup == nil {
				break
			}
			// Squeeze every primary on the backup's links to its
			// minimum, then activate.
			for _, d := range b.held[s].backup {
				for _, r := range n.SlotsOn(d).AppendMembers(nil) {
					_ = b.adjust(r, b.held[r].min)
				}
			}
			if err := b.release(s); err != nil {
				return fail("pre-activation release", err)
			}
			if b.activate(s) != nil {
				// Physically impossible even after squeeze: the conn is
				// dropped.
				if err := b.releaseBackup(s); err != nil {
					return fail("release unactivatable backup", err)
				}
				delete(conns, s)
				break
			}
			c.route, c.backup = c.backup, routing.Path{}
		}
		fmt.Fprintf(&trail, "%d:%d ", op, s)
		held, err := b.holdings()
		if err != nil {
			return fail("record", err)
		}
		if err := n.CheckInvariants(held); err != nil {
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
	b := newBook(n)
	mustOK(t, b.reserve(1, upper, 100))
	mustOK(t, b.reserve(2, lower, 100))
	mustOK(t, b.reserveBackup(1, lower))
	mustOK(t, b.reserveBackup(2, upper))
	b.check(t)
	// Without multiplexing, a second upper-primary backup on lower links
	// ADDS spare instead of sharing it.
	mustOK(t, b.reserve(3, upper, 100))
	mustOK(t, b.reserveBackup(3, lower))
	b.check(t)
	if got := n.Spare(fwd(lower.Links[0])); got != 200 {
		t.Fatalf("no-mux spare = %v, want 200 (sum)", got)
	}
	// Flipping the mode with live backups is refused.
	if err := n.SetMultiplexing(true); err == nil {
		t.Fatal("mode change with live backups accepted")
	}
	mustOK(t, b.releaseBackup(1))
	mustOK(t, b.releaseBackup(2))
	b.check(t)
	mustOK(t, b.releaseBackup(3))
	if got := n.Spare(fwd(lower.Links[0])); got != 0 {
		t.Fatalf("no-mux spare after release = %v", got)
	}
	if err := n.SetMultiplexing(true); err != nil {
		t.Fatal(err)
	}
}

func TestDependabilityDeficit(t *testing.T) {
	n, upper, lower := testNet(t, 300)
	b := newBook(n)
	mustOK(t, b.reserve(1, upper, 100))
	mustOK(t, b.reserveBackup(1, lower))
	mustOK(t, b.reserve(2, lower, 100))
	if d := n.DependabilityDeficit(); len(d) != 0 {
		t.Fatalf("quiescent deficit: %v", d)
	}
	// Register a second backup on lower whose primary overlaps conn 1's,
	// then activate conn 1.
	mustOK(t, b.reserve(3, upper, 100))
	mustOK(t, b.reserveBackup(3, lower))
	n.SetFailed(upper.Links[0], true)
	mustOK(t, b.release(1))
	mustOK(t, b.activate(1))
	// lower links: minSum = 100 (conn2) + 100 (activated conn1) = 200;
	// spare still 100 for conn3's backup → 300 = capacity: no deficit yet.
	if d := n.DependabilityDeficit(); len(d) != 0 {
		t.Fatalf("deficit too early: %v", d)
	}
	// One more primary fills the link past the reserve rule.
	n.SetFailed(upper.Links[0], false)
	if err := n.ReservePrimary(4, dirLinks(n, lower), 100); err == nil {
		t.Fatal("admission should refuse: minima+spare would exceed capacity")
	}
	// Bypass admission legitimately via activation: conn 3 fails over too.
	n.SetFailed(upper.Links[1], true)
	mustOK(t, b.release(3))
	// Squeeze not needed (everyone at min); activation must succeed
	// physically (300 capacity, 200 granted, +100 fits).
	mustOK(t, b.activate(3))
	// Now lower minSum=300=capacity with zero spare: no deficit. Register a
	// backup for conn 2 (primary lower) over upper, repaired first.
	n.SetFailed(upper.Links[1], false)
	mustOK(t, b.reserveBackup(2, upper))
	// Upper links: minSum=0, spare=100 → fine. Lower unchanged.
	b.check(t)
	if d := n.DependabilityDeficit(); len(d) != 0 {
		t.Fatalf("unexpected deficit: %v", d)
	}
}

func TestDependabilityDeficitAfterActivation(t *testing.T) {
	n, upper, lower := testNet(t, 200)
	b := newBook(n)
	g := n.Graph()
	// A: primary upper, backup lower (whole route).
	mustOK(t, b.reserve(1, upper, 100))
	mustOK(t, b.reserveBackup(1, lower))
	// B: primary lower at its minimum.
	mustOK(t, b.reserve(2, lower, 100))
	// C: primary 1→3 (the chord, disjoint from A's primary so the backups
	// may multiplex), backup 1→0→3 crossing lower's first link.
	linkBetween := func(a, z topology.NodeID) (id topology.LinkID) {
		g.ForEachNeighbor(a, func(peer topology.NodeID, l topology.LinkID) {
			if peer == z {
				id = l
			}
		})
		return id
	}
	l01, l13, l03 := linkBetween(0, 1), linkBetween(1, 3), linkBetween(0, 3)
	cPrimary := routing.Path{Nodes: []topology.NodeID{1, 3}, Links: []topology.LinkID{l13}}
	cBackup := routing.Path{Nodes: []topology.NodeID{1, 0, 3}, Links: []topology.LinkID{l01, l03}}
	mustOK(t, b.reserve(3, cPrimary, 100))
	mustOK(t, b.reserveBackup(3, cBackup))
	if d := n.DependabilityDeficit(); len(d) != 0 {
		t.Fatalf("quiescent deficit: %v", d)
	}
	// Upper fails; A activates onto lower. On l03 (forward): minima are
	// now A(100)+B(100) = 200 = capacity, while C's backup still counts
	// 100 spare there → deficit until protection is re-planned.
	n.SetFailed(upper.Links[1], true)
	mustOK(t, b.release(1))
	mustOK(t, b.activate(1))
	b.check(t) // ledger stays consistent even in deficit
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

// TestInvariantsCanFail injects one corruption per clause of CheckInvariants,
// into the ledger or into the record it is checked against, and requires the
// audit to name it; the untouched ledger passes.
func TestInvariantsCanFail(t *testing.T) {
	// build returns a ledger with primaries in slots 1–3 on upper (3 grown)
	// and their backups on lower, the record of it, and the first directed
	// link of each route.
	build := func(t *testing.T) (n *Network, held []Holding, up, low *dirState) {
		n, upper, lower := testNet(t, 10000)
		b := newBook(n)
		for s := int32(1); s <= 3; s++ {
			mustOK(t, b.reserve(s, upper, 100))
			mustOK(t, b.reserveBackup(s, lower))
		}
		mustOK(t, b.adjust(3, 300))
		b.check(t)
		held, _ = b.holdings()
		return n, held, &n.dirs[fwd(upper.Links[0])], &n.dirs[fwd(lower.Links[0])]
	}
	cases := []struct {
		clause  string
		corrupt func(held []Holding, up, low *dirState) []Holding
		want    string
	}{
		{"a primary entered twice", func(held []Holding, _, _ *dirState) []Holding {
			// A slot is a set member once; what can repeat is the record.
			return append(held, held[0])
		}, "slot 1 held by two connections"},
		{"grant below minimum", func(held []Holding, _, _ *dirState) []Holding {
			held[2].Grant = 50
			return held
		}, "below min"},
		{"grant sum drifted", func(held []Holding, up, _ *dirState) []Holding {
			up.grantSum += 50
			return held
		}, "cached grantSum"},
		{"min sum drifted", func(held []Holding, up, _ *dirState) []Holding {
			up.minSum -= 100
			return held
		}, "cached minSum"},
		{"an entry dropped, sums left behind", func(held []Holding, up, _ *dirState) []Holding {
			up.primaries.Remove(2)
			return held
		}, "primary of slot 2 not entered"},
		{"a stale link-set bit", func(held []Holding, up, _ *dirState) []Holding {
			// A slot no primary on the link holds.
			up.primaries.Add(60)
			return held
		}, "4 primaries entered, 3 primary routes cross it"},
		{"a missing link-set bit", func(held []Holding, up, _ *dirState) []Holding {
			// Swapped for a stale one, so the count alone passes.
			up.primaries.Remove(2)
			up.primaries.Add(60)
			return held
		}, "primary of slot 2 not entered"},
		{"a stale backup-set bit", func(held []Holding, _, low *dirState) []Holding {
			low.backups.Add(60)
			return held
		}, "4 backups entered, 3 backup routes cross it"},
		{"a backup dropped, conflicts left behind", func(held []Holding, _, low *dirState) []Holding {
			low.backups.Remove(1)
			return held
		}, "backup of slot 1 not entered"},
		{"a stale conflict entry", func(held []Holding, _, low *dirState) []Holding {
			// The last link is the 1–3 chord: no primary crosses it, so no
			// backup here protects it. Below the spare, so only the entry
			// is wrong.
			low.conflict[len(low.conflict)-1] = 100
			return held
		}, "conflict["},
		{"spare drifted", func(held []Holding, _, low *dirState) []Holding {
			low.spare += 100
			return held
		}, "cached spare"},
	}
	for _, tc := range cases {
		t.Run(tc.clause, func(t *testing.T) {
			n, held, up, low := build(t)
			err := n.CheckInvariants(tc.corrupt(held, up, low))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("audit said %v, want a complaint containing %q", err, tc.want)
			}
		})
	}
}
