package script

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"drqos/internal/core"
	"drqos/internal/manager"
	"drqos/internal/qos"
	"drqos/internal/shard"
	"drqos/internal/topology"
)

// Kind names one scripted operation.
type Kind uint8

const (
	Establish Kind = iota // POST /v1/connections
	Terminate             // DELETE /v1/connections/{oldest owned id}
	ReadStats             // GET /v1/stats
	ReadPoint             // GET /v1/connections/{newest owned id} (GET /v1/shards when sharded)
	Fail                  // POST /v1/faults/link {"action":"fail"}
	Repair                // POST /v1/faults/link {"action":"repair"}
	NumKinds              // number of kinds; sizes per-kind tables
)

func (k Kind) String() string {
	return [...]string{"establish", "terminate", "read_stats", "read_point", "fail", "repair"}[k]
}

// Op is one scripted operation. Src/Dst are set for Establish, Link for
// Fail and Repair; Terminate and ReadPoint name no connection because IDs
// are assigned by the daemon — the executing client resolves them against
// its own ledger.
type Op struct {
	Kind     Kind
	Src, Dst int32
	Link     int32
}

// The op mix, as counts per block of blockOps operations per client:
// 40% establish, 40% terminate, 18% reads (half stats, half point), and
// one fail→repair pair faultGap ops apart. Establish and terminate shares
// are equal, so the scripted population is level at every block boundary.
const (
	blockOps        = 100
	blockEstablish  = 40
	blockTerminate  = 40
	blockReadStats  = 9
	blockReadPoint  = 9
	faultGap        = 10
	faultLinkChoice = 8 // distinct links the fail/repair pairs cycle through
)

// Script is the complete pre-generated input of one run.
type Script struct {
	// Warm holds each client's population-building establishes: its share of
	// the standing population plus spares for rejected requests.
	Warm [Clients][]Op
	// Run holds each client's measured operations.
	Run [Clients][]Op
}

// Plane is the generator's in-process replica of a workload's network: the
// same graph the daemon builds from its flags, the shard plan when sharded,
// and empty managers used as an eligibility oracle for endpoint pairs.
type Plane struct {
	W     Workload
	Graph *topology.Graph
	Plan  *shard.Plan // nil for a single plane

	nodes      [][]topology.NodeID // per shard (one entry when unsharded)
	oracles    []*manager.Manager  // per shard, empty
	eligible   map[[2]int32]bool
	FaultLinks []topology.LinkID
}

// NewPlane rebuilds w's topology exactly as drserverd does.
func NewPlane(w Workload) (*Plane, error) {
	kind := core.TopologyWaxman
	if w.Kind == "tier" {
		kind = core.TopologyTransitStub
	}
	sys, err := core.NewSystem(core.Options{Seed: TopologySeed, Kind: kind, Nodes: Nodes})
	if err != nil {
		return nil, fmt.Errorf("building %s topology: %w", w.Kind, err)
	}
	p := &Plane{W: w, Graph: sys.Graph(), eligible: map[[2]int32]bool{}}
	g := p.Graph
	if w.Shards > 1 {
		if p.Plan, err = shard.BuildPlan(g, w.Shards); err != nil {
			return nil, err
		}
		p.nodes = make([][]topology.NodeID, w.Shards)
		for n, s := range p.Plan.NodeShard {
			p.nodes[s] = append(p.nodes[s], topology.NodeID(n))
		}
		for _, sub := range p.Plan.Subs {
			m, err := manager.New(sub.Graph, ManagerConfig())
			if err != nil {
				return nil, err
			}
			p.oracles = append(p.oracles, m)
		}
	} else {
		all := make([]topology.NodeID, g.NumNodes())
		for n := range all {
			all[n] = topology.NodeID(n)
		}
		p.nodes = [][]topology.NodeID{all}
		m, err := manager.New(g, ManagerConfig())
		if err != nil {
			return nil, err
		}
		p.oracles = []*manager.Manager{m}
	}
	p.FaultLinks = faultLinks(g)
	if len(p.FaultLinks) < Clients {
		return nil, fmt.Errorf("%s topology has only %d usable fault links", w.Kind, len(p.FaultLinks))
	}
	return p, nil
}

// faultLinks picks the links the fail/repair pairs target: evenly spaced
// over the links that are not bridges (failing a bridge partitions the
// network and turns the window into a reject benchmark) and, on the tier
// topology, that lie inside stub domains (a transit trunk carries a large
// share of all cross-shard connections, which the sharded plane tears down
// without reporting them). The set depends on the topology only, so every
// seed pays for the same faults.
func faultLinks(g *topology.Graph) []topology.LinkID {
	var cand []topology.LinkID
	for l := 0; l < g.NumLinks(); l++ {
		id := topology.LinkID(l)
		lk := g.Link(id)
		if g.Tag(lk.A) == "transit" || g.Tag(lk.B) == "transit" || isBridge(g, id) {
			continue
		}
		cand = append(cand, id)
	}
	if len(cand) <= faultLinkChoice {
		return cand[:len(cand)/Clients*Clients]
	}
	out := make([]topology.LinkID, faultLinkChoice)
	for i := range out {
		out[i] = cand[i*len(cand)/faultLinkChoice]
	}
	return out
}

// isBridge reports whether removing l disconnects its endpoints.
func isBridge(g *topology.Graph, l topology.LinkID) bool {
	lk := g.Link(l)
	seen := make([]bool, g.NumNodes())
	seen[lk.A] = true
	stack := []topology.NodeID{lk.A}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		g.ForEachNeighbor(n, func(peer topology.NodeID, link topology.LinkID) {
			if link != l && !seen[peer] {
				seen[peer] = true
				stack = append(stack, peer)
			}
		})
	}
	return !seen[lk.B]
}

// Eligible reports whether an empty network admits src→dst. Pairs it
// refuses have no (even partially) disjoint backup route and would be
// rejected at any load; excluding them keeps accept_ratio a statement about
// capacity, as in the paper, instead of about the topology's bridges.
// Cross-shard pairs are always eligible: the sharded plane admits them as
// rigid, unprotected connections.
func (p *Plane) Eligible(src, dst topology.NodeID) bool {
	key := [2]int32{int32(src), int32(dst)}
	if ok, seen := p.eligible[key]; seen {
		return ok
	}
	s, ls, ld := 0, src, dst
	if p.Plan != nil {
		s = p.Plan.NodeShard[src]
		if s != p.Plan.NodeShard[dst] {
			p.eligible[key] = true
			return true
		}
		ls, ld = p.Plan.Subs[s].LocalNode[src], p.Plan.Subs[s].LocalNode[dst]
	}
	m := p.oracles[s]
	rep, err := m.Establish(ls, ld, qos.DefaultSpec())
	if err == nil {
		// The oracle must stay empty; a failed terminate would be a manager
		// bug the generator cannot work around.
		if _, terr := m.Terminate(rep.Conn.ID); terr != nil {
			panic(fmt.Sprintf("script: eligibility oracle: %v", terr))
		}
	}
	p.eligible[key] = err == nil
	return err == nil
}

// pair draws one eligible endpoint pair with the workload's locality.
func (p *Plane) pair(r *rand.Rand) (src, dst topology.NodeID) {
	for {
		ss := r.Intn(len(p.nodes))
		ds := ss
		if len(p.nodes) > 1 && r.Float64() < p.W.CrossShare {
			ds = (ss + 1 + r.Intn(len(p.nodes)-1)) % len(p.nodes)
		}
		src = p.nodes[ss][r.Intn(len(p.nodes[ss]))]
		dst = p.nodes[ds][r.Intn(len(p.nodes[ds]))]
		if src != dst && p.Eligible(src, dst) {
			return src, dst
		}
	}
}

func (p *Plane) establish(r *rand.Rand) Op {
	src, dst := p.pair(r)
	return Op{Kind: Establish, Src: int32(src), Dst: int32(dst)}
}

// Generate builds the script for n measured operations (a multiple of
// Clients×blockOps, see Workload.Ops). Equal seeds give identical scripts.
func (p *Plane) Generate(seed int64, n int) *Script {
	r := rand.New(rand.NewSource(seed))
	s := &Script{}
	share := p.W.Standing / Clients
	for c := 0; c < Clients; c++ {
		for i := 0; i < share+share/8+8; i++ {
			s.Warm[c] = append(s.Warm[c], p.establish(r))
		}
	}
	for c := 0; c < Clients; c++ {
		// Clients fail disjoint links, so two failures never collide on one
		// link (which the daemon would answer 409).
		var links []topology.LinkID
		for i := c; i < len(p.FaultLinks); i += Clients {
			links = append(links, p.FaultLinks[i])
		}
		for b := 0; b < n/Clients/blockOps; b++ {
			link := int32(links[b%len(links)])
			s.Run[c] = append(s.Run[c], p.block(r, link)...)
		}
	}
	return s
}

// block lays out one mix block: the fail at a random slot, its repair
// faultGap slots later, everything else shuffled around them.
func (p *Plane) block(r *rand.Rand, link int32) []Op {
	rest := make([]Op, 0, blockOps-2)
	for i := 0; i < blockEstablish; i++ {
		rest = append(rest, p.establish(r))
	}
	for i := 0; i < blockTerminate; i++ {
		rest = append(rest, Op{Kind: Terminate})
	}
	for i := 0; i < blockReadStats; i++ {
		rest = append(rest, Op{Kind: ReadStats})
	}
	for i := 0; i < blockReadPoint; i++ {
		rest = append(rest, Op{Kind: ReadPoint})
	}
	r.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	failAt := r.Intn(blockOps - faultGap)
	out := make([]Op, 0, blockOps)
	for i := 0; i < blockOps; i++ {
		switch i {
		case failAt:
			out = append(out, Op{Kind: Fail, Link: link})
		case failAt + faultGap:
			out = append(out, Op{Kind: Repair, Link: link})
		default:
			out = append(out, rest[0])
			rest = rest[1:]
		}
	}
	return out
}

// Encode serializes the script; equal scripts encode to equal bytes.
func (s *Script) Encode() []byte {
	var buf []byte
	put := func(ops []Op) {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ops)))
		for _, op := range ops {
			buf = append(buf, byte(op.Kind))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(op.Src))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(op.Dst))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(op.Link))
		}
	}
	for c := 0; c < Clients; c++ {
		put(s.Warm[c])
		put(s.Run[c])
	}
	return buf
}
