package chaos

import (
	"fmt"
	"strings"

	"drqos/internal/journal"
)

// Shrink reduces a failing trace to a locally-minimal reproducer using
// ddmin-style chunk halving: repeatedly delete windows of events and keep
// any deletion after which Replay still fails. The oracle is "Replay
// reports a failure" — not "the same failure" — so the shrunk trace may
// surface an earlier manifestation of the same corruption, which is
// exactly what a reproducer wants. Because apply swallows usage errors,
// deleting an event another event depends on (say, the establish before a
// terminate) degrades that later event to a no-op instead of aborting the
// replay, which is what lets the window deletion be so aggressive.
//
// Shrink returns the minimized trace and the failure it reproduces. If the
// input trace does not fail on replay (flaky setup, wrong config), it
// returns (nil, nil, error).
func Shrink(cfg Config, trace []journal.Event) ([]journal.Event, *Failure, error) {
	fail, err := Replay(cfg, trace)
	if err != nil {
		return nil, nil, err
	}
	if fail == nil {
		return nil, nil, fmt.Errorf("chaos: trace does not fail on replay; nothing to shrink")
	}
	// The failure index bounds the relevant prefix: events after it were
	// never executed.
	cur := append([]journal.Event(nil), trace[:fail.Index+1]...)

	for chunk := (len(cur) + 1) / 2; chunk >= 1; chunk /= 2 {
		for start := 0; start < len(cur); {
			end := start + chunk
			if end > len(cur) {
				end = len(cur)
			}
			cand := make([]journal.Event, 0, len(cur)-(end-start))
			cand = append(cand, cur[:start]...)
			cand = append(cand, cur[end:]...)
			if len(cand) == 0 {
				start += chunk
				continue
			}
			f, err := Replay(cfg, cand)
			if err != nil {
				return nil, nil, err
			}
			if f != nil {
				// Deletion kept the failure: adopt the candidate and retry
				// the same window position (new events slid into it).
				cur = cand
				fail = f
				continue
			}
			start += chunk
		}
	}
	return cur, fail, nil
}

// FormatTrace renders a trace as a []journal.Event composite literal, ready
// to paste into a regression test and feed back through Replay.
func FormatTrace(trace []journal.Event) string {
	var b strings.Builder
	b.WriteString("[]journal.Event{\n")
	for _, ev := range trace {
		switch ev.Kind {
		case journal.KindEstablish:
			fmt.Fprintf(&b, "\t{Kind: journal.KindEstablish, Src: %d, Dst: %d, MinKbps: %d, MaxKbps: %d, IncKbps: %d, Utility: %v},\n",
				ev.Src, ev.Dst, ev.MinKbps, ev.MaxKbps, ev.IncKbps, ev.Utility)
		case journal.KindTerminate:
			fmt.Fprintf(&b, "\t{Kind: journal.KindTerminate, Conn: %d},\n", ev.Conn)
		case journal.KindFailLink:
			fmt.Fprintf(&b, "\t{Kind: journal.KindFailLink, Link: %d},\n", ev.Link)
		case journal.KindRepairLink:
			fmt.Fprintf(&b, "\t{Kind: journal.KindRepairLink, Link: %d},\n", ev.Link)
		default:
			fmt.Fprintf(&b, "\t{Kind: journal.Kind(%d)},\n", uint8(ev.Kind))
		}
	}
	b.WriteString("}")
	return b.String()
}
