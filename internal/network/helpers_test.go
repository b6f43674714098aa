package network

import (
	"drqos/internal/qos"
	"drqos/internal/topology"
)

// Ledger reads the tests check reservations and the dependability reserve
// rule with; the manager reads the ledger through its own aggregates.

// Graph returns the underlying topology.
func (n *Network) Graph() *topology.Graph { return n.g }

// Spare returns the multiplexed backup spare currently required on directed
// link d.
func (n *Network) Spare(d topology.DirLinkID) qos.Kbps { return n.dirs[d].spare }

// GrantSum returns the total primary reservation on directed link d.
func (n *Network) GrantSum(d topology.DirLinkID) qos.Kbps { return n.dirs[d].grantSum }

// MinSum returns the total of primary minima on directed link d.
func (n *Network) MinSum(d topology.DirLinkID) qos.Kbps { return n.dirs[d].minSum }

// DependabilityDeficit returns the directed links where the dependability
// reserve rule (Σ minima + spare ≤ capacity) currently does not hold. In
// the absence of failures and backup activations the slice is empty; after
// a failover it lists links whose backup coverage is degraded until
// protection is re-established.
func (n *Network) DependabilityDeficit() []topology.DirLinkID {
	var out []topology.DirLinkID
	for di := range n.dirs {
		ds := &n.dirs[di]
		if ds.minSum+ds.spare > n.capacity {
			out = append(out, topology.DirLinkID(di))
		}
	}
	return out
}
