package layers

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"drqos/bench/load"
	"drqos/internal/channel"
	"drqos/internal/manager"
	"drqos/internal/qos"
	"drqos/internal/server"
	"drqos/internal/shard"
	"drqos/internal/topology"
)

// managerTarget calls the admission state machine directly.
type managerTarget struct {
	m *manager.Manager
	// changes and events count level changes per state-changing event
	// (exact: the replay is single-threaded).
	changes, events int
}

func (t *managerTarget) establish(_ context.Context, src, dst topology.NodeID) (int64, error) {
	rep, err := t.m.Establish(src, dst, qos.DefaultSpec())
	if errors.Is(err, manager.ErrRejected) {
		return 0, errRejected
	}
	if err != nil {
		return 0, err
	}
	t.changes += len(rep.Changes)
	t.events++
	return int64(rep.Conn.ID), nil
}

func (t *managerTarget) terminate(_ context.Context, id int64) error {
	if c := t.m.Conn(channel.ConnID(id)); c == nil || !c.Alive() {
		return errGone
	}
	rep, err := t.m.Terminate(channel.ConnID(id))
	if err != nil {
		return err
	}
	t.changes += len(rep.Changes)
	t.events++
	return nil
}

func (t *managerTarget) fail(_ context.Context, l topology.LinkID) ([]int64, error) {
	rep, err := t.m.FailLink(l)
	if err != nil {
		return nil, err
	}
	t.changes += len(rep.Changes)
	t.events++
	return connIDs(rep.Dropped), nil
}

func (t *managerTarget) repair(_ context.Context, l topology.LinkID) error {
	_, err := t.m.RepairLink(l)
	return err
}

// read is a no-op: reads never reach the manager (the server answers them
// from its published epoch or a loop command that only looks).
func (t *managerTarget) read(context.Context, int64) error { return nil }

func connIDs(ids []channel.ConnID) []int64 {
	out := make([]int64, len(ids))
	for i, id := range ids {
		out[i] = int64(id)
	}
	return out
}

// serverTarget enters at the actor loop: queueing, write-ahead journaling,
// durability and replication waits, epoch publication — everything a
// request costs short of HTTP.
type serverTarget struct{ s *server.Server }

func (t serverTarget) establish(ctx context.Context, src, dst topology.NodeID) (int64, error) {
	rep, err := t.s.Establish(ctx, src, dst, qos.DefaultSpec())
	if errors.Is(err, manager.ErrRejected) {
		return 0, errRejected
	}
	if err != nil {
		return 0, err
	}
	return int64(rep.Conn.ID), nil
}

func (t serverTarget) terminate(ctx context.Context, id int64) error {
	_, err := t.s.Terminate(ctx, channel.ConnID(id))
	if errors.Is(err, server.ErrNotFound) {
		return errGone
	}
	return err
}

func (t serverTarget) fail(ctx context.Context, l topology.LinkID) ([]int64, error) {
	rep, err := t.s.FailLink(ctx, l)
	if err != nil {
		return nil, err
	}
	return connIDs(rep.Dropped), nil
}

func (t serverTarget) repair(ctx context.Context, l topology.LinkID) error {
	_, err := t.s.RepairLink(ctx, l)
	return err
}

func (t serverTarget) read(ctx context.Context, id int64) error {
	if id == 0 {
		_ = t.s.StatsView()
		return nil
	}
	_, err := t.s.ConnStatus(ctx, channel.ConnID(id))
	if errors.Is(err, server.ErrNotFound) {
		return errGone
	}
	return err
}

// shardTarget enters at the coordinator: shard routing, and for cross-shard
// pairs the two-phase prepare/commit over the owning shards.
type shardTarget struct{ c *shard.Coordinator }

func (t shardTarget) establish(ctx context.Context, src, dst topology.NodeID) (int64, error) {
	res, err := t.c.Establish(ctx, src, dst, qos.DefaultSpec())
	if errors.Is(err, manager.ErrRejected) || errors.Is(err, shard.ErrNoRoute) {
		return 0, errRejected
	}
	if err != nil {
		return 0, err
	}
	return res.ID, nil
}

func (t shardTarget) terminate(ctx context.Context, id int64) error {
	err := t.c.Terminate(ctx, id)
	if errors.Is(err, server.ErrNotFound) {
		return errGone
	}
	return err
}

// fail reports no drops, like the sharded HTTP front end: the replayer
// discovers them as gone connections, as the load clients do.
func (t shardTarget) fail(ctx context.Context, l topology.LinkID) ([]int64, error) {
	_, err := t.c.FailLink(ctx, l)
	return nil, err
}

func (t shardTarget) repair(ctx context.Context, l topology.LinkID) error {
	_, err := t.c.RepairLink(ctx, l)
	return err
}

// read has nothing to enter below the HTTP front end: the aggregate stats
// are assembled by the handler itself.
func (t shardTarget) read(context.Context, int64) error { return nil }

// httpTarget enters over loopback HTTP at a handler served in-process, with
// the load clients' own wire client.
type httpTarget struct {
	c       *load.Client
	sharded bool
}

func (t httpTarget) do(method, path string, body []byte, want int) (int, []byte, error) {
	status, resp, err := t.c.Do(method, path, body)
	if err != nil {
		return 0, nil, err
	}
	if status != want && status != http.StatusNotFound && status != http.StatusConflict {
		return status, resp, fmt.Errorf("%s %s: status %d: %s", method, path, status, resp)
	}
	return status, resp, nil
}

func (t httpTarget) establish(_ context.Context, src, dst topology.NodeID) (int64, error) {
	status, resp, err := t.do("POST", "/v1/connections", load.EstablishBody(int32(src), int32(dst)), http.StatusCreated)
	if err != nil {
		return 0, err
	}
	if load.Rejected(status, resp) {
		return 0, errRejected
	}
	var rep struct {
		ID int64 `json:"id"`
	}
	if status != http.StatusCreated {
		return 0, fmt.Errorf("establish: status %d: %s", status, resp)
	}
	if err := json.Unmarshal(resp, &rep); err != nil {
		return 0, err
	}
	return rep.ID, nil
}

func (t httpTarget) terminate(_ context.Context, id int64) error {
	status, resp, err := t.do("DELETE", fmt.Sprintf("/v1/connections/%d", id), nil, http.StatusOK)
	if err == nil && status == http.StatusNotFound {
		return errGone
	}
	if err == nil && status != http.StatusOK {
		return fmt.Errorf("terminate %d: status %d: %s", id, status, resp)
	}
	return err
}

func (t httpTarget) fault(l topology.LinkID, action string) ([]byte, error) {
	status, resp, err := t.do("POST", "/v1/faults/link", load.FaultBody(int32(l), action), http.StatusOK)
	if err == nil && status != http.StatusOK {
		return nil, fmt.Errorf("%s link %d: status %d: %s", action, l, status, resp)
	}
	return resp, err
}

func (t httpTarget) fail(_ context.Context, l topology.LinkID) ([]int64, error) {
	resp, err := t.fault(l, "fail")
	if err != nil {
		return nil, err
	}
	var rep struct {
		Dropped []int64 `json:"dropped"`
	}
	if err := json.Unmarshal(resp, &rep); err != nil {
		return nil, err
	}
	return rep.Dropped, nil
}

func (t httpTarget) repair(_ context.Context, l topology.LinkID) error {
	_, err := t.fault(l, "repair")
	return err
}

func (t httpTarget) read(_ context.Context, id int64) error {
	path := "/v1/stats"
	switch {
	case id != 0 && t.sharded:
		path = "/v1/shards"
	case id != 0:
		path = fmt.Sprintf("/v1/connections/%d", id)
	}
	status, resp, err := t.do("GET", path, nil, http.StatusOK)
	if err == nil && status == http.StatusNotFound {
		return errGone
	}
	if err == nil && status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, status, resp)
	}
	return err
}
