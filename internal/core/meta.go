package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"drqos/internal/journal"
	"drqos/internal/manager"
	"drqos/internal/qos"
)

// DataMeta pins a data directory — a drserverd -data-dir, or the journal
// drsim -trace writes — to the topology, admission config and shard count
// that produced its journals. Replay is only meaningful against the
// identical deterministic setup (the partition is derived from topology and
// shard count), so a mismatch is a hard startup error. Shards is 0 for the
// single plane, which keeps its meta.json as it always was.
type DataMeta struct {
	Kind          string `json:"kind"`
	Nodes         int    `json:"nodes"`
	Seed          uint64 `json:"seed"`
	CapacityKbps  int64  `json:"capacity_kbps"`
	Policy        string `json:"policy"`
	RequireBackup bool   `json:"require_backup"`
	Multiplex     bool   `json:"multiplex"`
	Shards        int    `json:"shards,omitempty"`
}

// Marker files: a directory is either a single-plane or a sharded
// deployment, never both.
const (
	singleMeta  = "meta.json"
	shardedMeta = "coordinator.json"
)

// CheckMeta writes want's marker file into dir on first use and verifies it
// on every later one. A directory already claimed by the other kind of
// deployment is refused.
func CheckMeta(dir string, want DataMeta) error {
	file, other := singleMeta, shardedMeta
	if want.Shards > 0 {
		file, other = other, file
	}
	have, err := readMeta(dir, file)
	if errors.Is(err, os.ErrNotExist) {
		if _, oerr := os.Stat(filepath.Join(dir, other)); oerr == nil {
			return fmt.Errorf("data dir %s already holds the other kind of deployment (%s); "+
				"a single-plane and a sharded daemon each need their own directory", dir, other)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		b, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, file), append(b, '\n'), 0o644)
	}
	if err != nil {
		return err
	}
	if have != want {
		return fmt.Errorf("data dir %s was written under config %+v, but this process started with %+v — "+
			"journal replay is only valid against the identical topology, admission config and shard count; "+
			"fix the flags or point -data-dir at a fresh directory", dir, have, want)
	}
	return nil
}

// ReadMeta returns the marker of a single-plane data directory. A sharded
// directory is refused by the name of its marker: its journals are per
// shard, and no one of them replays to the plane.
func ReadMeta(dir string) (DataMeta, error) {
	if _, err := os.Stat(filepath.Join(dir, shardedMeta)); err == nil {
		return DataMeta{}, fmt.Errorf("data dir %s holds a sharded deployment (%s), not a single plane", dir, shardedMeta)
	}
	return readMeta(dir, singleMeta)
}

func readMeta(dir, file string) (DataMeta, error) {
	raw, err := os.ReadFile(filepath.Join(dir, file))
	if err != nil {
		return DataMeta{}, err
	}
	var m DataMeta
	if err := json.Unmarshal(raw, &m); err != nil {
		return DataMeta{}, fmt.Errorf("data dir %s: unreadable %s: %w", dir, file, err)
	}
	return m, nil
}

// Build generates the topology d pins and returns it with the admission
// config its journals replay under.
func (d DataMeta) Build() (*System, manager.Config, error) {
	pol, err := qos.PolicyByName(d.Policy)
	if err != nil {
		return nil, manager.Config{}, err
	}
	k := TopologyWaxman
	if d.Kind == "tier" {
		k = TopologyTransitStub
	} else if d.Kind != "waxman" {
		return nil, manager.Config{}, fmt.Errorf("unknown kind %q", d.Kind)
	}
	sys, err := NewSystem(Options{Seed: d.Seed, Kind: k, Nodes: d.Nodes})
	if err != nil {
		return nil, manager.Config{}, err
	}
	return sys, manager.Config{
		Capacity:                  qos.Kbps(d.CapacityKbps),
		Policy:                    pol,
		RequireBackup:             d.RequireBackup,
		DisableBackupMultiplexing: !d.Multiplex,
	}, nil
}

// OpenTrace prepares dir to receive a simulation run's journal
// (Options.Trace): a fresh single-plane data directory pinned to meta, so
// drtrace and drserverd -data-dir read it as they read a daemon's. A
// directory that already holds records is refused — the simulator starts
// from an empty network. The journal leaves flushing to the OS; Close syncs
// it.
func OpenTrace(dir string, meta DataMeta) (*journal.Journal, error) {
	if err := CheckMeta(dir, meta); err != nil {
		return nil, err
	}
	jnl, rec, err := journal.Open(dir, journal.Options{FsyncEvery: -1})
	if err != nil {
		return nil, err
	}
	if rec.LastSeq > 0 {
		jnl.Close()
		return nil, fmt.Errorf("trace dir %s already holds a journal (through seq %d); a run starts from an empty network", dir, rec.LastSeq)
	}
	return jnl, nil
}
