package manager_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"math"
	"testing"

	"drqos/internal/channel"
	"drqos/internal/core"
	"drqos/internal/manager"
	"drqos/internal/qos"
	"drqos/internal/rng"
	"drqos/internal/routing"
	"drqos/internal/topology"
)

// parentRow is one configuration of TestAdaptationMatchesParent: a standing
// population held level by the script, and the admission config.
type parentRow struct {
	name     string
	standing int
	events   int
	cfg      manager.Config
}

var parentRows = []parentRow{
	{"pop100", 100, 3000, manager.Config{Capacity: core.PaperCapacity}},
	{"pop100/backup", 100, 3000, manager.Config{Capacity: core.PaperCapacity, RequireBackup: true}},
	{"pop2000", 2000, 1500, manager.Config{Capacity: core.PaperCapacity}},
	{"pop2000/backup", 2000, 1500, manager.Config{Capacity: core.PaperCapacity, RequireBackup: true}},
	{"pop2000/nomux", 2000, 1500, manager.Config{Capacity: core.PaperCapacity, RequireBackup: true, DisableBackupMultiplexing: true}},
}

// parentHashes[row][seed-1] is the digest adaptationDigest produced at the
// parent commit (b013e71, the map-based ledger and event kernels): this
// file, unchanged, was run there and the values pasted here. Every report
// field of every event enters the digest in order, then the final
// State.Fingerprint(), so equality means the slice-based kernels took the
// same admission decision, moved the same channels to the same levels and
// reported them in the same order, event for event.
var parentHashes = map[string][5]string{
	"pop100":         {"d3dbea0947ef7ebe", "5a8f0757cab852e9", "ba28076fe578dcd7", "c268e09e6f1830a4", "f5b07d0d2b41e765"},
	"pop100/backup":  {"4665b7b06e956145", "6dcf66b6222f1c7c", "6ac4fb45aa450d5f", "012d9c0a0b2cab1e", "e7dd294b087a43f7"},
	"pop2000":        {"3b2912dbb39be222", "4080702765b724f0", "9ba79b81b4ec853e", "4a61f4ddf8f8ce8d", "ba2e3f5951d9d889"},
	"pop2000/backup": {"2fd12c41fd27fba7", "5ae06b295638e2b0", "68d8e5c2d1462405", "2215bd11219a190d", "e0946eedac9397c7"},
	"pop2000/nomux":  {"2cb3cebb5a1dd32e", "f2ef96f4d05f3cbe", "0d0b430b033bb677", "82676daac32e88f5", "bd1d01e2e0c46102"},
}

// parentSpecs mixes ranges, increments and utilities so both policy keys
// (utility and extras) and unequal level counts are exercised.
var parentSpecs = []qos.ElasticSpec{
	qos.DefaultSpec(),
	{Min: 100, Max: 500, Increment: 50, Utility: 2},
	{Min: 50, Max: 450, Increment: 100, Utility: 4},
	{Min: 200, Max: 800, Increment: 200, Utility: 1},
}

func TestAdaptationMatchesParent(t *testing.T) {
	sys, err := core.NewSystem(core.Options{Seed: 1, Kind: core.TopologyWaxman, Nodes: 100})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range parentRows {
		row := row
		t.Run(row.name, func(t *testing.T) {
			if testing.Short() && row.standing > 100 {
				t.Skip("high-population rows skipped in -short")
			}
			want, recorded := parentHashes[row.name]
			for seed := uint64(1); seed <= 5; seed++ {
				got := adaptationDigest(t, sys.Graph(), row, seed)
				switch {
				case !recorded:
					t.Errorf("no parent hash recorded; seed %d digest %s", seed, got)
				case got != want[seed-1]:
					t.Errorf("seed %d: digest %s, parent commit produced %s", seed, got, want[seed-1])
				}
			}
		})
	}
}

// adaptationDigest builds the row's standing population, runs its mixed
// script and returns the digest of everything the manager reported.
func adaptationDigest(t *testing.T, g *topology.Graph, row parentRow, seed uint64) string {
	t.Helper()
	m, err := manager.New(g, row.cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := &digest{h: sha256.New()}
	src := rng.New(seed)
	pair := func() (topology.NodeID, topology.NodeID) {
		a := topology.NodeID(src.Intn(g.NumNodes()))
		b := topology.NodeID(src.Intn(g.NumNodes() - 1))
		if b >= a {
			b++
		}
		return a, b
	}
	establish := func() {
		a, b := pair()
		rep, err := m.Establish(a, b, parentSpecs[src.Intn(len(parentSpecs))])
		d.arrival(rep, err)
	}
	var failed []topology.LinkID
	for tries := 0; m.AliveCount() < row.standing; tries++ {
		if tries > 20*row.standing {
			t.Fatalf("population stuck at %d of %d", m.AliveCount(), row.standing)
		}
		establish()
	}
	for ev := 0; ev < row.events; ev++ {
		u := src.Float64()
		switch {
		case u < 0.42 || (u < 0.94 && m.AliveCount() < row.standing):
			establish()
		case u < 0.47:
			a, b := pair()
			path, err := routing.ShortestHops(g, a, b, func(l topology.LinkID) bool { return !m.Network().Failed(l) })
			if err != nil {
				d.u64(0xdead)
				continue
			}
			rep, err := m.EstablishFixed(a, b, qos.ElasticSpec{Min: 200, Max: 200, Increment: 200, Utility: 1}, path)
			d.arrival(rep, err)
		case u < 0.94:
			rep, err := m.Terminate(m.AliveIDAt(src.Intn(m.AliveCount())))
			if err != nil {
				t.Fatalf("event %d: terminate: %v", ev, err)
			}
			d.ids(rep.Affected)
			d.changes(rep.Changes)
		case (u < 0.97 && len(failed) < 3) || len(failed) == 0:
			l := topology.LinkID(src.Intn(g.NumLinks()))
			if m.Network().Failed(l) {
				continue
			}
			rep, err := m.FailLink(l)
			if err != nil {
				t.Fatalf("event %d: fail link %d: %v", ev, l, err)
			}
			failed = append(failed, l)
			d.activated += len(rep.Activated)
			d.dropped += len(rep.Dropped)
			d.backupsLost += len(rep.BackupsLost)
			d.ids(rep.Activated)
			d.ids(rep.Dropped)
			d.ids(rep.Recovered)
			d.ids(rep.BackupsLost)
			d.ids(rep.Squeezed)
			d.changes(rep.Changes)
		default:
			i := src.Intn(len(failed))
			restored, err := m.RepairLink(failed[i])
			if err != nil {
				t.Fatalf("event %d: repair link %d: %v", ev, failed[i], err)
			}
			failed = append(failed[:i], failed[i+1:]...)
			d.u64(uint64(restored))
		}
		d.u64(uint64(m.AliveCount()))
		d.u64(uint64(m.UnprotectedCount()))
		d.u64(math.Float64bits(m.AverageBandwidth()))
		if ev%250 == 0 {
			if err := m.CheckInvariants(); err != nil {
				t.Fatalf("event %d: %v", ev, err)
			}
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	fmt.Fprint(d.h, m.ExportState().Fingerprint())
	t.Logf("seed %d: %d admitted, %d rejected, %d activated, %d dropped, %d backups lost",
		seed, d.admitted, d.rejected, d.activated, d.dropped, d.backupsLost)
	return hex.EncodeToString(d.h.Sum(nil))[:16]
}

// digest feeds report fields to a hash; nil and empty slices hash apart.
type digest struct {
	h hash.Hash
	// What the script exercised, for -v: a row that never rejects or never
	// activates a backup would pin less than it claims.
	admitted, rejected, activated, dropped, backupsLost int
}

func (d *digest) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d *digest) ids(ids []channel.ConnID) {
	if ids == nil {
		d.u64(math.MaxUint64)
		return
	}
	d.u64(uint64(len(ids)))
	for _, id := range ids {
		d.u64(uint64(id))
	}
}

func (d *digest) changes(cs []manager.LevelChange) {
	if cs == nil {
		d.u64(math.MaxUint64)
		return
	}
	d.u64(uint64(len(cs)))
	for _, c := range cs {
		d.u64(uint64(c.ID))
		d.u64(uint64(c.From))
		d.u64(uint64(c.To))
	}
}

func (d *digest) path(p routing.Path) {
	d.u64(uint64(len(p.Nodes)))
	for _, n := range p.Nodes {
		d.u64(uint64(n))
	}
	for _, l := range p.Links {
		d.u64(uint64(l))
	}
}

func (d *digest) arrival(rep *manager.ArrivalReport, err error) {
	switch {
	case err == nil:
		d.admitted++
		d.u64(1)
	case errors.Is(err, manager.ErrRejected):
		d.rejected++
		d.u64(2)
		return
	default:
		d.u64(3)
		return
	}
	c := rep.Conn
	d.u64(uint64(c.ID))
	d.u64(uint64(c.Level))
	d.u64(uint64(c.SharedWithPrimary))
	d.path(c.Primary)
	if c.HasBackup {
		d.path(c.Backup)
	}
	d.ids(rep.DirectlyChained)
	d.ids(rep.IndirectlyChained)
	d.changes(rep.Changes)
}
