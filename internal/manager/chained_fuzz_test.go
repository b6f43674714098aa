package manager

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"drqos/internal/channel"
	"drqos/internal/qos"
	"drqos/internal/rng"
	"drqos/internal/routing"
	"drqos/internal/topology"
)

// refConn is one live connection as the reference sees it: what the paper's
// definitions and the water-filling read, copied out of the manager before
// an event.
type refConn struct {
	id     channel.ConnID
	dirs   []topology.DirLinkID
	backup routing.Path // zero without a backup
	spec   qos.ElasticSpec
	level  int
}

// refState is the population before an event, ascending by ID, with the
// failed links.
type refState struct {
	conns  []refConn
	failed func(topology.LinkID) bool
}

func snapshot(m *Manager) refState {
	var st refState
	for _, id := range m.AliveIDs() {
		c := m.Conn(id)
		rc := refConn{id: id, dirs: c.Primary.DirLinks(m.g), spec: c.Spec, level: c.Level}
		if c.HasBackup {
			rc.backup = routing.Path{Nodes: slices.Clone(c.Backup.Nodes), Links: slices.Clone(c.Backup.Links)}
		}
		st.conns = append(st.conns, rc)
	}
	failed := slices.Clone(failedLinks(m))
	st.failed = func(l topology.LinkID) bool { return slices.Contains(failed, l) }
	return st
}

func failedLinks(m *Manager) []topology.LinkID {
	var out []topology.LinkID
	for l := 0; l < m.g.NumLinks(); l++ {
		if m.net.Failed(topology.LinkID(l)) {
			out = append(out, topology.LinkID(l))
		}
	}
	return out
}

func shares(a, b []topology.DirLinkID) bool {
	for _, d := range a {
		if slices.Contains(b, d) {
			return true
		}
	}
	return false
}

// refFill is the §3.2 water-filling by definition: levels and routes by ID,
// room per directed link summed from every grant, and a linear scan for the
// least rank among the candidates that can grow, one increment at a time.
type refFill struct {
	m      *Manager
	level  map[channel.ConnID]int
	spec   map[channel.ConnID]qos.ElasticSpec
	dirs   map[channel.ConnID][]topology.DirLinkID
	failed func(topology.LinkID) bool
	room   map[topology.DirLinkID]qos.Kbps // sumRoom's, kept by fill
}

func newRefFill(m *Manager, st refState) *refFill {
	f := &refFill{m: m, level: map[channel.ConnID]int{}, spec: map[channel.ConnID]qos.ElasticSpec{},
		dirs: map[channel.ConnID][]topology.DirLinkID{}, failed: st.failed}
	for _, c := range st.conns {
		f.level[c.id], f.spec[c.id], f.dirs[c.id] = c.level, c.spec, c.dirs
	}
	return f
}

// sumRoom sets every directed link's room to what it has left under every
// grant: capacity less the sum over the connections crossing it, or none
// on a failed link.
func (f *refFill) sumRoom() {
	f.room = map[topology.DirLinkID]qos.Kbps{}
	for d := 0; d < f.m.g.NumDirLinks(); d++ {
		if dl := topology.DirLinkID(d); !f.failed(dl.Link()) {
			f.room[dl] = f.m.cfg.Capacity
		}
	}
	for id, dirs := range f.dirs {
		for _, d := range dirs {
			if !f.failed(d.Link()) {
				f.room[d] -= f.spec[id].Bandwidth(f.level[id])
			}
		}
	}
}

func (f *refFill) canGrow(id channel.ConnID) bool {
	sp := f.spec[id]
	if f.level[id] >= sp.States()-1 {
		return false
	}
	for _, d := range f.dirs[id] {
		if f.room[d] < sp.Increment {
			return false
		}
	}
	return true
}

// growable lists the candidates that can grow now, ascending by ID.
func (f *refFill) growable(cands []channel.ConnID) []channel.ConnID {
	f.sumRoom()
	var out []channel.ConnID
	for _, id := range cands {
		if f.canGrow(id) {
			out = append(out, id)
		}
	}
	return out
}

func (f *refFill) fill(cands []channel.ConnID) {
	f.sumRoom()
	for {
		best, found := channel.ConnID(0), false
		var bestRank qos.Rank
		for _, id := range cands {
			if !f.canGrow(id) {
				continue
			}
			r := f.m.cfg.Policy.Rank(qos.GrowthCandidate{Utility: f.spec[id].Utility, ExtraIncrements: f.level[id], Order: int64(id)})
			if !found || r.Less(bestRank) {
				best, bestRank, found = id, r, true
			}
		}
		if !found {
			return
		}
		f.level[best]++
		for _, d := range f.dirs[best] {
			f.room[d] -= f.spec[best].Increment
		}
	}
}

// changes lists the moves of cands against st, ascending, nil when none.
func (f *refFill) changes(st refState, cands []channel.ConnID) []LevelChange {
	var out []LevelChange
	for _, c := range st.conns {
		if slices.Contains(cands, c.id) && f.level[c.id] != c.level {
			out = append(out, LevelChange{ID: c.id, From: c.level, To: f.level[c.id]})
		}
	}
	return out
}

// liveLevels is the manager's ledger reduced to what the reference predicts:
// every live connection's level.
func liveLevels(m *Manager) map[channel.ConnID]int {
	out := map[channel.ConnID]int{}
	for _, id := range m.AliveIDs() {
		out[id] = m.Conn(id).Level
	}
	return out
}

// chainedByDefinition returns the directly chained connections of a route
// (sharing one of its directed links) and the indirectly chained ones
// (sharing a directed link with a directly chained one, and none with the
// route), each ascending, from a scan of every connection.
func chainedByDefinition(st refState, route []topology.DirLinkID) (direct, indirect []channel.ConnID) {
	direct, indirect = []channel.ConnID{}, []channel.ConnID{}
	var directLinks []topology.DirLinkID
	for _, c := range st.conns {
		if shares(c.dirs, route) {
			direct = append(direct, c.id)
			directLinks = append(directLinks, c.dirs...)
		}
	}
	for _, c := range st.conns {
		if !shares(c.dirs, route) && shares(c.dirs, directLinks) {
			indirect = append(indirect, c.id)
		}
	}
	return direct, indirect
}

// arrivalByDefinition plans an arrival on route by the paper: the directly
// chained channels at their minima, the arrival (when id is not 0) at its
// minimum, then fills the chained population and the arrival. It returns
// the fill and the growable candidates at its start.
func arrivalByDefinition(m *Manager, st refState, route []topology.DirLinkID, id channel.ConnID, spec qos.ElasticSpec) (*refFill, []channel.ConnID, []channel.ConnID, []channel.ConnID) {
	direct, indirect := chainedByDefinition(st, route)
	f := newRefFill(m, st)
	for _, d := range direct {
		f.level[d] = 0
	}
	cands := append(slices.Clone(direct), indirect...)
	slices.Sort(cands)
	if id != 0 {
		f.level[id], f.spec[id], f.dirs[id] = 0, spec, route
		cands = append(cands, id)
	}
	start := f.growable(cands)
	f.fill(cands)
	return f, direct, indirect, start
}

// fuzzSpecs mixes ranges, increments and utilities as the parent-hash
// test's specs do, so the starting filter sees several increments.
var fuzzSpecs = []qos.ElasticSpec{
	qos.DefaultSpec(),
	{Min: 100, Max: 500, Increment: 50, Utility: 2},
	{Min: 50, Max: 450, Increment: 100, Utility: 4},
	{Min: 200, Max: 800, Increment: 200, Utility: 1},
}

// uniformFuzzSpecs share one utility and keep fuzzSpecs' mixed increments,
// so the filling serves them in rounds, where the least increment decides
// by one bit and the others walk their routes.
var uniformFuzzSpecs = []qos.ElasticSpec{
	qos.DefaultSpec(),
	{Min: 50, Max: 450, Increment: 100, Utility: 1},
	{Min: 200, Max: 800, Increment: 200, Utility: 1},
}

// FuzzChainedSetsMatchDefinition holds the event kernels' set algebra to the
// paper's definitions, computed by brute force: before every event the
// population is copied out, and the reference derives the directly and
// indirectly chained sets, a termination's sharers and a failure's retreat
// population by scanning every live connection, and serves the
// water-filling by a linear least-rank scan with room recomputed from every
// grant. The arrival's, termination's and failure's reports, the filling's
// starting candidates, and every live connection's level afterwards must
// equal the reference's. A refused arrival must leave the population as it
// found it (refused before it was planned) or as the reference re-plans it
// without the arrival. Inputs are random Waxman graphs with fuzzSpecs'
// mixed increments and utilities (served from the growth queue) or, when
// seed&4 is set, uniformFuzzSpecs' one utility (served in rounds, which fit
// or bind as the links' room allows), rigid EstablishFixed connections, and
// failed links.
func FuzzChainedSetsMatchDefinition(f *testing.F) {
	for seed := uint64(1); seed <= 6; seed++ {
		script := make([]byte, 160)
		src := rng.New(seed * 977)
		for i := range script {
			script[i] = byte(src.Intn(256))
		}
		f.Add(seed, script)
	}
	f.Fuzz(func(t *testing.T, seed uint64, script []byte) {
		if len(script) > 400 {
			script = script[:400]
		}
		nodes := 10 + int(seed%13)
		g, err := topology.Waxman(topology.WaxmanConfig{Nodes: nodes, Alpha: 0.6, Beta: 0.3, EnsureConnected: true}, rng.New(seed))
		if err != nil {
			t.Skip(err)
		}
		cfg := Config{Capacity: qos.Kbps(800 + 200*(seed%6)), RequireBackup: seed&1 == 1}
		if seed&2 == 2 {
			cfg.Policy = qos.MaxUtilityPolicy{}
		}
		specs := fuzzSpecs
		if seed&4 == 4 {
			specs = uniformFuzzSpecs
		}
		m := mustMgr(t, g, cfg)
		src := rng.New(seed ^ 0x5eed)
		pair := func() (topology.NodeID, topology.NodeID) {
			a := topology.NodeID(src.Intn(nodes))
			b := topology.NodeID(src.Intn(nodes - 1))
			if b >= a {
				b++
			}
			return a, b
		}
		var arrivals, terminations, failures, walked int
		for ev, b := range script {
			st := snapshot(m)
			switch op := b % 10; {
			case op <= 4:
				a, z := pair()
				arrivals++
				admitted := m.requests - m.rejects
				checkArrival(t, m, st, specs[int(b>>4)%len(specs)], func(spec qos.ElasticSpec) (*ArrivalReport, error) {
					return m.Establish(a, z, spec)
				})
				if m.requests-m.rejects > admitted && m.work.walk {
					walked++
				}
			case op == 5:
				a, z := pair()
				path, err := routing.ShortestHops(g, a, z, func(l topology.LinkID) bool { return !m.net.Failed(l) })
				if err != nil {
					continue
				}
				arrivals++
				checkArrival(t, m, st, qos.ElasticSpec{Min: 200, Max: 200, Increment: 200, Utility: 1}, func(spec qos.ElasticSpec) (*ArrivalReport, error) {
					return m.EstablishFixed(a, z, spec, path)
				})
			case op <= 7:
				if len(st.conns) == 0 {
					continue
				}
				terminations++
				checkTermination(t, m, st, st.conns[int(b>>4)%len(st.conns)])
			case op == 8 && len(failedLinks(m)) < 2:
				l := topology.LinkID(int(b>>4) * g.NumLinks() / 16)
				if m.net.Failed(l) {
					continue
				}
				failures++
				checkFailure(t, m, st, l)
			default:
				if failed := failedLinks(m); len(failed) > 0 {
					if _, err := m.RepairLink(failed[int(b>>4)%len(failed)]); err != nil {
						t.Fatalf("event %d: repair: %v", ev, err)
					}
				}
			}
			if err := m.CheckInvariants(); err != nil {
				t.Fatalf("event %d: %v", ev, err)
			}
		}
		t.Logf("%d nodes: %d arrivals (%d admitted, %d planned by walking), %d terminations, %d failures; %d alive at the end; %d rounds, %d queue pops",
			nodes, arrivals, m.requests-m.rejects, walked, terminations, failures, m.AliveCount(), m.work.counts.rounds, m.work.counts.popped)
	})
}

// refIDs lists the connections' IDs in the order given.
func refIDs(conns []refConn) []channel.ConnID {
	out := []channel.ConnID{}
	for _, c := range conns {
		out = append(out, c.id)
	}
	return out
}

func checkArrival(t *testing.T, m *Manager, st refState, spec qos.ElasticSpec, establish func(qos.ElasticSpec) (*ArrivalReport, error)) {
	t.Helper()
	rep, err := establish(spec)
	if err != nil {
		if !errors.Is(err, ErrRejected) && !errors.Is(err, qos.ErrInvalidSpec) {
			t.Fatalf("establish: %v", err)
		}
		// Refused before planning, or re-planned without the arrival on
		// the route it tried (still in the scratch).
		got := liveLevels(m)
		if reflect.DeepEqual(got, newRefFill(m, st).level) {
			return
		}
		f, _, _, _ := arrivalByDefinition(m, st, m.work.route, 0, spec)
		if !reflect.DeepEqual(got, f.level) {
			t.Fatalf("refused arrival left levels %v, reference re-plans %v", got, f.level)
		}
		return
	}
	c := rep.Conn
	route := c.Primary.DirLinks(m.g)
	f, direct, indirect, start := arrivalByDefinition(m, st, route, c.ID, spec)
	cands := append(slices.Clone(direct), indirect...)
	want := &ArrivalReport{
		Conn:              c,
		DirectlyChained:   len(direct),
		IndirectlyChained: len(indirect),
		Changes:           append(f.changes(st, cands), LevelChange{ID: c.ID, From: 0, To: f.level[c.ID]}),
	}
	if !reflect.DeepEqual(rep, want) {
		t.Fatalf("arrival of conn %d reported\n%+v\nthe definitions give\n%+v", c.ID, rep, want)
	}
	if got := m.AppendChained([]channel.ConnID{}, false); !reflect.DeepEqual(got, direct) {
		t.Fatalf("arrival of conn %d chained %v directly, the definitions give %v", c.ID, got, direct)
	}
	if got := m.AppendChained([]channel.ConnID{}, true); !reflect.DeepEqual(got, indirect) {
		t.Fatalf("arrival of conn %d chained %v indirectly, the definitions give %v", c.ID, got, indirect)
	}
	var added []channel.ConnID
	for _, it := range m.work.grow.added {
		added = append(added, m.slotID[it.slot])
	}
	if !slices.Equal(added, start) {
		t.Fatalf("arrival of conn %d started the filling with %v, the definitions give %v", c.ID, added, start)
	}
	if got := liveLevels(m); !reflect.DeepEqual(got, f.level) {
		t.Fatalf("arrival of conn %d left levels %v, reference %v", c.ID, got, f.level)
	}
}

func checkTermination(t *testing.T, m *Manager, st refState, gone refConn) {
	t.Helper()
	rep, err := m.Terminate(gone.id)
	if err != nil {
		t.Fatalf("terminate %d: %v", gone.id, err)
	}
	var sharers []refConn
	for _, c := range st.conns {
		if c.id != gone.id && shares(c.dirs, gone.dirs) {
			sharers = append(sharers, c)
		}
	}
	f := newRefFill(m, st)
	delete(f.level, gone.id)
	delete(f.dirs, gone.id)
	cands := refIDs(sharers)
	f.fill(cands)
	want := &TerminationReport{Affected: len(cands), Changes: f.changes(st, cands)}
	if !reflect.DeepEqual(rep, want) {
		t.Fatalf("termination of conn %d reported %+v, the definitions give %+v", gone.id, rep, want)
	}
	if got := m.AppendChained([]channel.ConnID{}, false); !reflect.DeepEqual(got, cands) {
		t.Fatalf("termination of conn %d affected %v, the definitions give %v", gone.id, got, cands)
	}
	if got := m.AppendChained(nil, true); got != nil {
		t.Fatalf("termination of conn %d chained %v indirectly", gone.id, got)
	}
	if got := liveLevels(m); !reflect.DeepEqual(got, f.level) {
		t.Fatalf("termination of conn %d left levels %v, reference %v", gone.id, got, f.level)
	}
}

// checkFailure takes which victims activated or dropped from the report
// (whether a backup's minimum fits is the ledger's call, not a definition),
// and derives the rest: the retreat population on the activation links, the
// chained population, and the filling over every link whose capacity moved.
func checkFailure(t *testing.T, m *Manager, st refState, l topology.LinkID) {
	t.Helper()
	rep, err := m.FailLink(l)
	if err != nil {
		t.Fatalf("fail link %d: %v", l, err)
	}
	var victims, activation, region []topology.DirLinkID
	isVictim := map[channel.ConnID]bool{}
	for _, c := range st.conns {
		if slices.ContainsFunc(c.dirs, func(d topology.DirLinkID) bool { return d.Link() == l }) {
			isVictim[c.id] = true
			victims = append(victims, c.dirs...)
			if len(c.backup.Links) > 0 && !slices.Contains(c.backup.Links, l) {
				activation = append(activation, c.backup.DirLinks(m.g)...)
			}
		}
	}
	squeezed, chained := []channel.ConnID{}, []channel.ConnID{}
	f := newRefFill(m, st)
	f.failed = func(x topology.LinkID) bool { return x == l || st.failed(x) }
	for _, c := range st.conns {
		switch {
		case isVictim[c.id]:
			delete(f.level, c.id)
			delete(f.dirs, c.id)
		case shares(c.dirs, activation):
			squeezed = append(squeezed, c.id)
			chained = append(chained, c.id)
			f.level[c.id] = 0
		case shares(c.dirs, victims):
			chained = append(chained, c.id)
		}
	}
	region = append(append(region, victims...), activation...)
	for _, c := range st.conns {
		if slices.Contains(rep.Activated, c.id) {
			f.level[c.id], f.dirs[c.id] = 0, c.backup.DirLinks(m.g)
		}
	}
	var cands []channel.ConnID
	for id, dirs := range f.dirs {
		if shares(dirs, region) {
			cands = append(cands, id)
		}
	}
	slices.Sort(cands)
	f.fill(cands)
	if !reflect.DeepEqual(rep.Squeezed, squeezed) {
		t.Fatalf("failure of link %d squeezed %v, the definitions give %v", l, rep.Squeezed, squeezed)
	}
	if want := f.changes(st, chained); !reflect.DeepEqual(rep.Changes, want) {
		t.Fatalf("failure of link %d reported changes %v, the definitions give %v", l, rep.Changes, want)
	}
	if got := liveLevels(m); !reflect.DeepEqual(got, f.level) {
		t.Fatalf("failure of link %d left levels %v, reference %v", l, got, f.level)
	}
}
