package chaos

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"drqos/internal/journal"
	"drqos/internal/manager"
	"drqos/internal/rng"
	"drqos/internal/server"
	"drqos/internal/topology"
)

// fuzzConfigs are the admission configs a FuzzApply input picks from:
// what the episodes run (drserverd -no-require-backup), drserverd's
// default, the restoration baseline of §2.1.2 and the overbooking
// ablation.
var fuzzConfigs = []manager.Config{
	{Capacity: capacityKbps},
	{Capacity: capacityKbps, RequireBackup: true},
	{Capacity: capacityKbps, ReactiveRecovery: true},
	{Capacity: capacityKbps, DisableBackupMultiplexing: true},
}

// byteSource feeds the generator from a fuzz input: two bytes per draw,
// zeros once the input runs out.
type byteSource struct{ b []byte }

func (s *byteSource) next() int {
	if len(s.b) < 2 {
		s.b = nil
		return 0
	}
	v := binary.LittleEndian.Uint16(s.b)
	s.b = s.b[2:]
	return int(v)
}

func (s *byteSource) Float64() float64 { return float64(s.next()) / (1 << 16) }
func (s *byteSource) Intn(n int) int   { return s.next() % n }

// One generated event draws at most three values, six bytes.
const maxEventBytes = 6

// fuzzInput is a FuzzApply input decoded: header byte h picks config
// h%len(fuzzConfigs) on the 24-node Waxman graph of seed h/len(fuzzConfigs),
// the next byte is the event index at which the restored manager takes
// over (clamped to the trace's end), and the rest drives nextEvent until
// it is used up.
type fuzzInput struct {
	seed uint64
	cfg  manager.Config
	cut  int
	src  byteSource
}

func decodeInput(data []byte) (fuzzInput, bool) {
	if len(data) < 2 {
		return fuzzInput{}, false
	}
	n := len(fuzzConfigs)
	return fuzzInput{
		seed: uint64(data[0]) / uint64(n),
		cfg:  fuzzConfigs[int(data[0])%n],
		cut:  int(data[1]),
		src:  byteSource{data[2:]},
	}, true
}

// managerPopulation is the generator's view of a manager.
func managerPopulation(m *manager.Manager) population {
	pop := newPopulation(m.Graph().NumNodes(), m.Graph().NumLinks(),
		func(l int) bool { return m.Network().Failed(topology.LinkID(l)) })
	for _, id := range m.AliveIDs() {
		pop.alive = append(pop.alive, int64(id))
	}
	return pop
}

// fuzzFailure is an input that broke: the event at index At of Trace (-1:
// every event passed and the end states disagree) and why.
type fuzzFailure struct {
	At    int
	Trace []journal.Event
	Err   error
}

func (f *fuzzFailure) Error() string {
	if f.At < 0 {
		return fmt.Sprintf("after %d events: %v", len(f.Trace), f.Err)
	}
	return fmt.Sprintf("event %d of %d (%s): %v", f.At, len(f.Trace), f.Trace[f.At], f.Err)
}

// applyInput is FuzzApply's body. A live manager steps through the decoded
// trace the way the write path does — Validate, then Replay, then the full
// audit — and hook, when non-nil, runs between the apply and the audit.
// The events it accepts are the journal. Two more managers must then end
// in the live one's state, every event audited on the way: one restored
// from the live state exported, marshalled and unmarshalled at the cut,
// with the journal's tail replayed after it; and one replaying the whole
// journal after a round trip through the stream's frame codec. It returns
// the journal; a nil failure means all of that held.
func applyInput(data []byte, hook func(journal.Event, *manager.Manager)) ([]journal.Event, *fuzzFailure) {
	in, ok := decodeInput(data)
	if !ok {
		return nil, nil
	}
	g, err := waxman(24, in.seed)
	if err != nil {
		return nil, &fuzzFailure{At: -1, Err: err}
	}
	live, err := manager.New(g, in.cfg)
	if err != nil {
		return nil, &fuzzFailure{At: -1, Err: err}
	}
	var (
		trace []journal.Event
		txns  server.TxnTable // stays empty: the four paper events open no transaction
		cut   []byte
	)
	fail := func(at int, err error) ([]journal.Event, *fuzzFailure) {
		return trace, &fuzzFailure{At: at, Trace: trace, Err: err}
	}
	for len(in.src.b) > 0 {
		if cut == nil && len(trace) == in.cut {
			cut = live.ExportState().MarshalBinary()
		}
		ev := nextEvent(&in.src, managerPopulation(live))
		if server.Validate(live, &txns, ev) != nil {
			continue
		}
		ev.Seq = uint64(len(trace) + 1)
		trace = append(trace, ev)
		if err := server.Replay(live, &txns, ev); err != nil {
			return fail(len(trace)-1, err)
		}
		if hook != nil {
			hook(ev, live)
		}
		if err := live.CheckInvariants(); err != nil {
			return fail(len(trace)-1, err)
		}
	}
	if cut == nil {
		in.cut, cut = len(trace), live.ExportState().MarshalBinary()
	}

	st, err := manager.UnmarshalState(cut)
	if err != nil {
		return fail(in.cut, fmt.Errorf("restore: %w", err))
	}
	restored, err := manager.Restore(g, in.cfg, st)
	if err != nil {
		return fail(in.cut, fmt.Errorf("restore: %w", err))
	}
	if at, err := replayAll(restored, trace[in.cut:]); err != nil {
		return fail(in.cut+at, fmt.Errorf("restored at %d: %w", in.cut, err))
	}

	evs, err := journal.DecodeFrames(journal.EncodeFramesForTesting(trace))
	if err != nil {
		return fail(-1, err)
	}
	replayed, err := manager.New(g, in.cfg)
	if err != nil {
		return fail(-1, err)
	}
	if at, err := replayAll(replayed, evs); err != nil {
		return fail(at, fmt.Errorf("replayed: %w", err))
	}

	want := live.ExportState().Fingerprint()
	if got := restored.ExportState().Fingerprint(); got != want {
		return fail(-1, fmt.Errorf("restored at %d: fingerprint %.12s, live %.12s", in.cut, got, want))
	}
	if got := replayed.ExportState().Fingerprint(); got != want {
		return fail(-1, fmt.Errorf("replayed: fingerprint %.12s, live %.12s", got, want))
	}
	return trace, nil
}

// replayAll applies journaled events the way recovery does, auditing after
// each; at is the index of the one that failed.
func replayAll(m *manager.Manager, evs []journal.Event) (at int, err error) {
	var txns server.TxnTable
	for i, ev := range evs {
		if err := server.Replay(m, &txns, ev); err != nil {
			return i, err
		}
		if err := m.CheckInvariants(); err != nil {
			return i, err
		}
	}
	return 0, nil
}

// seedCorpus is FuzzApply's seed corpus: 64 inputs, every config on 16
// topologies, each long enough for at least 128 events.
func seedCorpus() [][]byte {
	var corpus [][]byte
	for h := 0; h < 64; h++ {
		src := rng.New(uint64(h) + 1)
		in := []byte{byte(h), byte(src.Intn(128))}
		for len(in) < 2+128*maxEventBytes {
			in = binary.LittleEndian.AppendUint64(in, src.Uint64())
		}
		corpus = append(corpus, in)
	}
	return corpus
}

// FuzzApply holds live ≡ restore ≡ replay over traces decoded from the
// fuzz input, with the ledger audited after every event. Its seed corpus
// runs with the ordinary tests; go test -fuzz FuzzApply explores beyond
// it, and a failing input, minimised, lands in testdata/fuzz/FuzzApply/.
func FuzzApply(f *testing.F) {
	for _, in := range seedCorpus() {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, fail := applyInput(data, nil); fail != nil {
			t.Fatal(fail)
		}
	})
}

// TestSeedCorpus: the seed corpus covers every config on at least eight
// topologies, and every input decodes to at least 120 events.
func TestSeedCorpus(t *testing.T) {
	configs, seeds := map[int]bool{}, map[uint64]bool{}
	for _, data := range seedCorpus() {
		in, _ := decodeInput(data)
		configs[int(data[0])%len(fuzzConfigs)] = true
		seeds[in.seed] = true
		if events := len(in.src.b) / maxEventBytes; events < 120 {
			t.Errorf("input %x…: room for %d events, want >= 120", data[:2], events)
		}
	}
	if len(configs) != len(fuzzConfigs) || len(seeds) < 8 {
		t.Fatalf("seed corpus covers %d of %d configs on %d topologies", len(configs), len(fuzzConfigs), len(seeds))
	}
}

// TestDeterminism: one input decodes to one trace, or a kept reproducer is
// worthless.
func TestDeterminism(t *testing.T) {
	in := seedCorpus()[5]
	t1, f1 := applyInput(in, nil)
	t2, f2 := applyInput(in, nil)
	if f1 != nil || f2 != nil {
		t.Fatalf("seed input failed: %v / %v", f1, f2)
	}
	if !reflect.DeepEqual(t1, t2) {
		t.Fatalf("one input, two traces (%d and %d events)", len(t1), len(t2))
	}
}

// TestFuzzApplyCanFail runs FuzzApply's body with a corruption planted on
// every link failure — the aggregate bandwidth ledger drifts by one — and
// requires the audit to report it at the first fail_link of the trace.
func TestFuzzApplyCanFail(t *testing.T) {
	trace, fail := applyInput(seedCorpus()[0], func(ev journal.Event, m *manager.Manager) {
		if ev.Kind == journal.KindFailLink {
			m.CorruptAggregatesForTesting()
		}
	})
	if fail == nil {
		t.Fatalf("the corruption went unnoticed over %d events", len(trace))
	}
	if !errors.As(fail.Err, new(*manager.InvariantViolation)) {
		t.Fatalf("want an InvariantViolation, got %v", fail)
	}
	first := -1
	for i, ev := range trace {
		if ev.Kind == journal.KindFailLink {
			first = i
			break
		}
	}
	if fail.At != first {
		t.Fatalf("violation reported at event %d, the first fail_link is event %d: %v", fail.At, first, fail)
	}
	t.Log(fail)
}
