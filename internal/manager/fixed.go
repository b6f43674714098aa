package manager

import (
	"fmt"

	"drqos/internal/channel"
	"drqos/internal/qos"
	"drqos/internal/routing"
	"drqos/internal/topology"
)

// EstablishFixed admits a rigid (Min == Max) connection pinned to an
// explicit primary path, with no backup. It exists for the sharded
// admission plane: a cross-shard two-phase reservation pins each shard's
// local sub-path here during prepare, so the reservation is an ordinary
// connection — it squeezes chained elastics, counts in every aggregate,
// round-trips through ExportState/Restore unchanged, and releases via
// Terminate on abort. Because Min == Max the connection has a single
// level: it never grows in redistribution and squeezeToMin is a no-op.
// Backup protection for a cross-shard connection is a coordinator concern
// (each sub-path alone cannot be link-disjoint with the whole), so unlike
// Establish this deliberately bypasses Config.RequireBackup.
func (m *Manager) EstablishFixed(src, dst topology.NodeID, spec qos.ElasticSpec, primary routing.Path) (rep *ArrivalReport, err error) {
	defer tagViolation(&err, "establish_fixed")
	m.requests++
	if err := spec.Validate(); err != nil {
		m.rejects++
		return nil, err
	}
	if spec.Min != spec.Max {
		m.rejects++
		return nil, fmt.Errorf("%w: fixed connection requires min == max (got %d != %d)", qos.ErrInvalidSpec, spec.Min, spec.Max)
	}
	if src == dst {
		m.rejects++
		return nil, fmt.Errorf("%w: src == dst (%d)", ErrRejected, src)
	}
	if err := validRoute(m.g, primary, src, dst); err != nil {
		m.rejects++
		return nil, fmt.Errorf("%w: bad fixed path: %v", ErrRejected, err)
	}
	for _, l := range primary.Links {
		if m.net.Failed(l) {
			m.rejects++
			return nil, fmt.Errorf("%w: fixed path crosses failed link %d", ErrRejected, l)
		}
	}

	return m.admit(channel.New(m.nextID, src, dst, spec, primary), nil, false)
}
