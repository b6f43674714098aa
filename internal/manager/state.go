// Durable-state export and restore: the journal snapshot body is the
// manager's full replayable state — every alive connection with its routes
// and level, the failed-link set, the ID counter and the acceptance
// counters. Everything else the manager holds (the network ledger, the
// aggregates) is derived from these and rebuilt by Restore, then verified
// against first principles by CheckInvariants.
package manager

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"drqos/internal/channel"
	"drqos/internal/journal"
	"drqos/internal/qos"
	"drqos/internal/routing"
	"drqos/internal/topology"
)

// PathState is a serialized routing.Path.
type PathState struct {
	Nodes []int32
	Links []int32
}

func pathState(p routing.Path) PathState {
	ps := PathState{Nodes: make([]int32, len(p.Nodes)), Links: make([]int32, len(p.Links))}
	for i, n := range p.Nodes {
		ps.Nodes[i] = int32(n)
	}
	for i, l := range p.Links {
		ps.Links[i] = int32(l)
	}
	return ps
}

func (ps PathState) path() routing.Path {
	p := routing.Path{Nodes: make([]topology.NodeID, len(ps.Nodes)), Links: make([]topology.LinkID, len(ps.Links))}
	for i, n := range ps.Nodes {
		p.Nodes[i] = topology.NodeID(n)
	}
	for i, l := range ps.Links {
		p.Links[i] = topology.LinkID(l)
	}
	return p
}

// ConnState is the serializable state of one alive DR-connection.
type ConnState struct {
	ID                int64
	Src, Dst          int32
	Spec              qos.ElasticSpec
	Level             int32
	FailedOver        bool
	Primary           PathState
	HasBackup         bool
	Backup            PathState
	SharedWithPrimary int32
}

// State is the manager's full durable state. Conns are ordered by
// ascending ID; FailedLinks ascending.
type State struct {
	NextID      int64
	Requests    int64
	Rejects     int64
	FailedLinks []int32
	Conns       []ConnState
}

// ExportState captures the manager's current durable state. The manager is
// single-threaded, so the caller must hold the actor loop (the server
// exports inside a command).
func (m *Manager) ExportState() *State {
	st := &State{
		NextID:   int64(m.nextID),
		Requests: m.requests,
		Rejects:  m.rejects,
	}
	for l := 0; l < m.g.NumLinks(); l++ {
		if m.net.Failed(topology.LinkID(l)) {
			st.FailedLinks = append(st.FailedLinks, int32(l))
		}
	}
	for _, s := range m.alive {
		c := m.slots[s].conn
		cs := ConnState{
			ID:                int64(c.ID),
			Src:               int32(c.Src),
			Dst:               int32(c.Dst),
			Spec:              c.Spec,
			Level:             int32(c.Level),
			FailedOver:        c.State() == channel.StateFailedOver,
			Primary:           pathState(c.Primary),
			HasBackup:         c.HasBackup,
			SharedWithPrimary: int32(c.SharedWithPrimary),
		}
		if c.HasBackup {
			cs.Backup = pathState(c.Backup)
		}
		st.Conns = append(st.Conns, cs)
	}
	return st
}

// Config returns the manager's (defaults-applied) configuration, so the
// embedding service can rebuild an equivalent manager during recovery.
func (m *Manager) Config() Config { return m.cfg }

// Restore rebuilds a Manager from exported state: connections are
// re-reserved in ascending ID order at their minima, grown to their
// recorded levels, backups re-registered (bypassing re-admission — the
// original run admitted them; post-failover states may carry a
// dependability deficit that would fail a fresh check), and the failed-link
// set re-marked. The rebuilt manager passes a full CheckInvariants audit
// before being returned.
func Restore(g *topology.Graph, cfg Config, st *State) (*Manager, error) {
	m, err := New(g, cfg)
	if err != nil {
		return nil, err
	}
	var prev int64
	for i := range st.Conns {
		cs := &st.Conns[i]
		if cs.ID <= prev && i > 0 || cs.ID <= 0 {
			return nil, fmt.Errorf("manager: restore: conn IDs not ascending at index %d (id %d)", i, cs.ID)
		}
		prev = cs.ID
		if cs.ID >= st.NextID {
			return nil, fmt.Errorf("manager: restore: conn %d at or beyond NextID %d", cs.ID, st.NextID)
		}
		if err := cs.Spec.Validate(); err != nil {
			return nil, fmt.Errorf("manager: restore: conn %d: %w", cs.ID, err)
		}
		if cs.Level < 0 || int(cs.Level) >= cs.Spec.States() {
			return nil, fmt.Errorf("manager: restore: conn %d level %d outside [0,%d)", cs.ID, cs.Level, cs.Spec.States())
		}
		id := channel.ConnID(cs.ID)
		src, dst := topology.NodeID(cs.Src), topology.NodeID(cs.Dst)
		primary := cs.Primary.path()
		if err := validRoute(g, primary, src, dst); err != nil {
			return nil, fmt.Errorf("manager: restore: conn %d primary: %w", cs.ID, err)
		}
		conn := channel.RestoreConn(id, src, dst, cs.Spec, primary, int(cs.Level), cs.FailedOver)
		slot := m.allocSlot(conn)
		dirs := m.slots[slot].dirs
		if err := m.net.ReservePrimary(slot, dirs, cs.Spec.Min); err != nil {
			return nil, fmt.Errorf("manager: restore: conn %d primary reservation: %w", cs.ID, err)
		}
		if cs.Level > 0 {
			if err := m.net.AdjustPrimary(dirs, cs.Spec.Min, cs.Spec.Bandwidth(int(cs.Level))); err != nil {
				return nil, fmt.Errorf("manager: restore: conn %d grow to level %d: %w", cs.ID, cs.Level, err)
			}
		}
		if cs.HasBackup {
			backup := cs.Backup.path()
			if err := validRoute(g, backup, src, dst); err != nil {
				return nil, fmt.Errorf("manager: restore: conn %d backup: %w", cs.ID, err)
			}
			if err := m.net.RestoreBackup(slot, m.backupDirs(backup), primary.Links, cs.Spec.Min); err != nil {
				return nil, fmt.Errorf("manager: restore: conn %d backup registration: %w", cs.ID, err)
			}
			if err := conn.AttachBackup(backup, int(cs.SharedWithPrimary)); err != nil {
				return nil, fmt.Errorf("manager: restore: conn %d: %w", cs.ID, err)
			}
		}
		if err := m.trackAdd(slot); err != nil {
			return nil, fmt.Errorf("manager: restore: conn %d: %w", cs.ID, err)
		}
	}
	for _, l := range st.FailedLinks {
		if l < 0 || int(l) >= g.NumLinks() {
			return nil, fmt.Errorf("manager: restore: failed link %d out of range", l)
		}
		m.net.SetFailed(topology.LinkID(l), true)
	}
	m.nextID = channel.ConnID(st.NextID)
	m.requests = st.Requests
	m.rejects = st.Rejects
	if err := m.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("manager: restore: rebuilt state fails audit: %w", err)
	}
	return m, nil
}

// validRoute checks that p is a path of g from src to dst. Restore and
// EstablishFixed take routes that arrive as bytes (a snapshot, a prepare
// record), and a route that runs elsewhere would be reserved, and then
// audited, as if it were the connection's.
func validRoute(g *topology.Graph, p routing.Path, src, dst topology.NodeID) error {
	if err := p.Validate(g); err != nil {
		return err
	}
	if p.Src() != src || p.Dst() != dst {
		return fmt.Errorf("route runs %d->%d, connection %d->%d", p.Src(), p.Dst(), src, dst)
	}
	return nil
}

// Binary state encoding. Deterministic: the same manager state always
// produces the same bytes, so Fingerprint doubles as a bit-identity check
// between two managers. Little-endian fixed-width fields throughout.

const (
	stateMagic   = 0x53515244 // "DRQS"
	stateVersion = 1
)

func appendPath(buf []byte, ps PathState) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ps.Nodes)))
	for _, n := range ps.Nodes {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	}
	for _, l := range ps.Links {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(l))
	}
	return buf
}

// SnapshotHeader returns a snapshot header carrying m's aggregates — alive
// and unprotected counts, level histogram, request counters and failed
// links — which a restore compares against the state it rebuilt. The
// daemon and the simulator write their snapshots with it.
func (m *Manager) SnapshotHeader() journal.SnapshotHeader {
	hdr := journal.SnapshotHeader{
		Alive:          m.AliveCount(),
		Unprotected:    m.unprotected,
		LevelHistogram: m.LevelHistogram(nil),
		Requests:       m.requests,
		Rejects:        m.rejects,
	}
	for l := 0; l < m.g.NumLinks(); l++ {
		if m.net.Failed(topology.LinkID(l)) {
			hdr.FailedLinks = append(hdr.FailedLinks, l)
		}
	}
	return hdr
}

// MarshalBinary encodes the state as the journal snapshot body.
func (st *State) MarshalBinary() []byte {
	buf := make([]byte, 0, 64+len(st.Conns)*96)
	buf = binary.LittleEndian.AppendUint32(buf, stateMagic)
	buf = binary.LittleEndian.AppendUint32(buf, stateVersion)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(st.NextID))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(st.Requests))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(st.Rejects))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(st.FailedLinks)))
	for _, l := range st.FailedLinks {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(l))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(st.Conns)))
	for i := range st.Conns {
		cs := &st.Conns[i]
		buf = binary.LittleEndian.AppendUint64(buf, uint64(cs.ID))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(cs.Src))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(cs.Dst))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(cs.Spec.Min))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(cs.Spec.Max))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(cs.Spec.Increment))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(cs.Spec.Utility))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(cs.Level))
		var flags byte
		if cs.FailedOver {
			flags |= 1
		}
		if cs.HasBackup {
			flags |= 2
		}
		buf = append(buf, flags)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(cs.SharedWithPrimary))
		buf = appendPath(buf, cs.Primary)
		if cs.HasBackup {
			buf = appendPath(buf, cs.Backup)
		}
	}
	return buf
}

// stateReader is a cursor over an encoded state body with sticky errors.
type stateReader struct {
	data []byte
	off  int
	err  error
}

func (r *stateReader) u32() uint32 {
	if r.err != nil {
		return 0
	}
	if r.off+4 > len(r.data) {
		r.err = fmt.Errorf("manager: state body truncated at offset %d", r.off)
		return 0
	}
	v := binary.LittleEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v
}

func (r *stateReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.data) {
		r.err = fmt.Errorf("manager: state body truncated at offset %d", r.off)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v
}

func (r *stateReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.data) {
		r.err = fmt.Errorf("manager: state body truncated at offset %d", r.off)
		return 0
	}
	b := r.data[r.off]
	r.off++
	return b
}

// maxStatePath bounds a decoded path length; real routes are dozens of
// hops at most, so anything larger is a corrupt or hostile body.
const maxStatePath = 1 << 16

func (r *stateReader) path() PathState {
	n := r.u32()
	if r.err == nil && n > maxStatePath {
		r.err = fmt.Errorf("manager: state body declares %d-node path", n)
	}
	if r.err != nil {
		return PathState{}
	}
	ps := PathState{Nodes: make([]int32, n)}
	if n > 0 {
		ps.Links = make([]int32, n-1)
	}
	for i := range ps.Nodes {
		ps.Nodes[i] = int32(r.u32())
	}
	for i := range ps.Links {
		ps.Links[i] = int32(r.u32())
	}
	return ps
}

// UnmarshalState decodes a snapshot body produced by MarshalBinary.
func UnmarshalState(body []byte) (*State, error) {
	r := &stateReader{data: body}
	if magic := r.u32(); r.err == nil && magic != stateMagic {
		return nil, fmt.Errorf("manager: state body magic %08x, want %08x", magic, stateMagic)
	}
	if v := r.u32(); r.err == nil && v != stateVersion {
		return nil, fmt.Errorf("manager: state body version %d, this build reads %d", v, stateVersion)
	}
	st := &State{
		NextID:   int64(r.u64()),
		Requests: int64(r.u64()),
		Rejects:  int64(r.u64()),
	}
	nFailed := r.u32()
	if r.err == nil && nFailed > maxStatePath {
		return nil, fmt.Errorf("manager: state body declares %d failed links", nFailed)
	}
	for i := uint32(0); i < nFailed && r.err == nil; i++ {
		st.FailedLinks = append(st.FailedLinks, int32(r.u32()))
	}
	nConns := r.u32()
	for i := uint32(0); i < nConns && r.err == nil; i++ {
		cs := ConnState{
			ID:  int64(r.u64()),
			Src: int32(r.u32()),
			Dst: int32(r.u32()),
			Spec: qos.ElasticSpec{
				Min:       qos.Kbps(r.u64()),
				Max:       qos.Kbps(r.u64()),
				Increment: qos.Kbps(r.u64()),
			},
		}
		cs.Spec.Utility = math.Float64frombits(r.u64())
		cs.Level = int32(r.u32())
		flags := r.byte()
		cs.FailedOver = flags&1 != 0
		cs.HasBackup = flags&2 != 0
		cs.SharedWithPrimary = int32(r.u32())
		cs.Primary = r.path()
		if cs.HasBackup {
			cs.Backup = r.path()
		}
		st.Conns = append(st.Conns, cs)
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(body) {
		return nil, fmt.Errorf("manager: state body has %d trailing bytes", len(body)-r.off)
	}
	return st, nil
}

// Fingerprint returns a hex digest of the canonical state encoding. Two
// managers with equal fingerprints hold bit-identical durable state: same
// alive set, routes, levels, failed links and counters.
func (st *State) Fingerprint() string {
	sum := sha256.Sum256(st.MarshalBinary())
	return hex.EncodeToString(sum[:])
}
