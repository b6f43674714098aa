package chaos

import (
	"context"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"drqos/internal/journal"
	"drqos/internal/manager"
	"drqos/internal/server"
)

// TestEpisodes runs every row of the table. Each row is judged by the one
// oracle after every restart and promotion and at the end, and by the
// bounds its faults declare; DESIGN.md "Episodes and the oracle" maps the
// behaviours the former per-family runners gated to the clause that gates
// them now. Outside -short a second seed moves every script and topology.
func TestEpisodes(t *testing.T) {
	seeds := []uint64{1, 2}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, ep := range Episodes {
		t.Run(ep.Name, func(t *testing.T) {
			if testing.Short() && ep.Name == "overload" {
				t.Skip("pressure rows run real backlogs; skipped in -short")
			}
			for _, seed := range seeds {
				fp, err := ep.Run(seed, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				if fp == "" && ep.Name != "mix-shutdown" {
					t.Fatalf("seed %d: episode ended with nothing live to fingerprint", seed)
				}
				t.Logf("seed %d: fp=%.12s", seed, fp)
			}
		})
	}
}

// TestCrashPointDoesNotMatter: same seed, different crash points, with and
// without a lost group-commit window — the final state must not depend on
// where or how the crash landed. The script is sequential and the window's
// appends come from their own rng stream, so the acknowledged history is
// one history.
func TestCrashPointDoesNotMatter(t *testing.T) {
	var want string
	for _, at := range []int{10, 50, 95} {
		for _, kind := range []FaultKind{Kill, LoseUnackedWindow} {
			ep := Episode{Name: "crash-sweep", Plane: Durable, Ops: 100, SnapshotEvery: 8,
				Faults: []Fault{{At: at, Kind: kind, N: 6}, {At: at, Kind: Restart}}}
			fp, err := ep.Run(42, t.TempDir())
			if err != nil {
				t.Fatalf("%s at %d: %v", kind, at, err)
			}
			if want == "" {
				want = fp
			} else if fp != want {
				t.Fatalf("%s at %d: fingerprint %s, want %s", kind, at, fp, want)
			}
		}
	}
}

// rewriteJournal replaces dir's journal with edit's version of its records,
// renumbered from 1 — the kind of damage that keeps every frame valid.
func rewriteJournal(dir string, edit func([]journal.Event) ([]journal.Event, error)) error {
	rec, err := journal.Read(dir)
	if err != nil {
		return err
	}
	evs, err := edit(rec.Events)
	if err != nil {
		return err
	}
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	jnl, _, err := journal.Open(dir, journal.Options{FsyncEvery: -1})
	if err != nil {
		return err
	}
	for _, ev := range evs {
		if _, err := jnl.Append(ev); err != nil {
			return err
		}
	}
	return jnl.Close()
}

// clauses lists the oracle clauses an episode error names, sorted and
// comma-separated ("" for a nil error).
func clauses(err error) string {
	if err == nil {
		return ""
	}
	seen := map[string]bool{}
	for _, m := range regexp.MustCompile(`oracle \((i|ii|iii|iv|v)\)`).FindAllStringSubmatch(err.Error(), -1) {
		seen[m[1]] = true
	}
	var out []string
	for c := range seen {
		out = append(out, c)
	}
	sort.Strings(out)
	return strings.Join(out, ",")
}

// TestOracleCanFail injects one violation per clause and requires the
// oracle to name that clause — and, where the damage can be confined to it,
// no other. Without the injection each of these episodes passes
// (TestEpisodes runs their rows).
func TestOracleCanFail(t *testing.T) {
	crash := func(hook func(dir string, live *server.Server) error) Episode {
		return Episode{Name: "crash-tampered", Plane: Durable, Ops: 120, SnapshotEvery: -1, Faults: []Fault{
			{At: 60, Kind: Kill}, {At: 60, Kind: Corrupt, Hook: hook}, {At: 60, Kind: Restart}}}
	}
	// replayOf steps a manager through evs so a hook can pick its victim by
	// what each record did. Hooks run on a client goroutine: they report
	// through their error, never through t.
	replayOf := func(seed uint64, evs []journal.Event, each func(i int, m *manager.Manager)) error {
		g, err := waxman(24, seed)
		if err != nil {
			return err
		}
		m, err := manager.New(g, manager.Config{Capacity: 10_000})
		if err != nil {
			return err
		}
		for i, ev := range evs {
			if err := server.Replay(m, &server.TxnTable{}, ev); err != nil {
				return err
			}
			each(i, m)
		}
		return nil
	}

	t.Run("i: a record dropped mid-journal", func(t *testing.T) {
		// The victim is a rejected establish: dropping it moves nothing but
		// the request counters, so no client was told anything the journal
		// no longer supports — only the acknowledged prefix is broken. Seed 4
		// has four rejections in its first 60 records.
		const seed = 4
		ep := crash(func(dir string, _ *server.Server) error {
			return rewriteJournal(dir, func(evs []journal.Event) ([]journal.Event, error) {
				victim, rejects := -1, int64(0)
				err := replayOf(seed, evs, func(i int, m *manager.Manager) {
					if m.SnapshotHeader().Rejects > rejects && victim == -1 {
						victim = i
					}
					rejects = m.SnapshotHeader().Rejects
				})
				if err != nil || victim == -1 {
					return nil, fmt.Errorf("no rejected establish to drop (%v)", err)
				}
				return append(evs[:victim:victim], evs[victim+1:]...), nil
			})
		})
		_, err := ep.Run(seed, t.TempDir())
		if clauses(err) != "i" {
			t.Fatalf("want a violation of clause (i) alone, got: %v", err)
		}
		t.Log(err)
	})

	t.Run("ii: a client told one level too many", func(t *testing.T) {
		w, err := Select("crash-nosnap-window")[0].start(1, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer w.stop()
		if err := w.script(); err != nil {
			t.Fatal(err)
		}
		w.led.acks[len(w.led.acks)/2].level++
		err = w.judge("tampering")
		if clauses(err) != "ii" {
			t.Fatalf("want a violation of clause (ii) alone, got: %v", err)
		}
		t.Log(err)
	})

	t.Run("iii: corrupted aggregates", func(t *testing.T) {
		ep := Episode{Name: "mix-corrupted", Plane: Single, Ops: 80, Faults: []Fault{{At: 40, Kind: Corrupt,
			Hook: func(_ string, live *server.Server) error {
				_ = live.CorruptForTesting(context.Background()) // answers the violation it planted
				return nil
			}}}}
		_, err := ep.Run(1, t.TempDir())
		if clauses(err) != "iii" {
			t.Fatalf("want a violation of clause (iii) alone, got: %v", err)
		}
		t.Log(err)
	})

	// The acked-loss bug a count cannot see: the last acknowledged establish
	// vanishes from the surviving journal while an establish nobody was
	// acknowledged survives in its place. The restarted node holds as many
	// connections as were acknowledged — the `Alive < len(acked)` check the
	// failover and partition runners used to make is satisfied — but not
	// the ones that were acknowledged.
	t.Run("iv: an acknowledged establish swapped for an unacknowledged one", func(t *testing.T) {
		ep := crash(func(dir string, _ *server.Server) error {
			return rewriteJournal(dir, func(evs []journal.Event) ([]journal.Event, error) {
				victim, alive := -1, 0
				err := replayOf(1, evs, func(i int, m *manager.Manager) {
					if m.AliveCount() > alive {
						victim = i
					}
					alive = m.AliveCount()
				})
				if err != nil {
					return nil, err
				}
				stranger := evs[victim]
				stranger.Src, stranger.Dst = stranger.Dst, stranger.Src
				return append(append(evs[:victim:victim], evs[victim+1:]...), stranger), nil
			})
		})
		w, err := ep.start(1, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer w.stop()
		err = w.script()
		if got := clauses(err); !strings.Contains(got, "iv") || !strings.HasPrefix(got, "i,") {
			t.Fatalf("want violations of clauses (i) and (iv), got: %v", err)
		}
		t.Log(err)
		acked := 0
		for _, a := range w.led.acks {
			if !w.led.gone[a.id] {
				acked++
			}
		}
		n, _ := w.primary()
		st, serr := n.srv.Snapshot(context.Background())
		if serr != nil {
			t.Fatal(serr)
		}
		if st.Alive < acked {
			t.Fatalf("%d alive, %d acknowledged: the swap was meant to keep the count", st.Alive, acked)
		}
	})

	t.Run("v: a bound of zero", func(t *testing.T) {
		ep := Select("failover")[0]
		ep.Faults = append([]Fault(nil), ep.Faults...)
		ep.Faults[0].tight = true
		_, err := ep.Run(1, t.TempDir())
		if clauses(err) != "v" {
			t.Fatalf("want a violation of clause (v) alone, got: %v", err)
		}
		t.Log(err)
	})
}
