// Command drtrace summarizes a single-plane data directory — the journal
// `drsim -trace` writes, or a live or stopped drserverd's -data-dir: event
// counts, per-failure impact, and the population and bandwidth trajectory by
// journal sequence number. It restores the newest snapshot, if any, and
// replays the record tail after it through the manager's transition; it
// never writes to the directory.
//
// Example:
//
//	drsim -conns 2000 -gamma 1e-4 -trace run1
//	drtrace -in run1 -buckets 10
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"drqos/internal/core"
	"drqos/internal/journal"
	"drqos/internal/manager"
	"drqos/internal/qos"
	"drqos/internal/server"
	"drqos/internal/stats"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "drtrace:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		in      = flag.String("in", "", "data directory written by drsim -trace or drserverd -data-dir (required)")
		buckets = flag.Int("buckets", 10, "number of sequence-number buckets in the trajectory table")
	)
	flag.Parse()
	if *in == "" {
		flag.Usage()
		return fmt.Errorf("-in is required")
	}
	if *buckets < 1 {
		return fmt.Errorf("need at least 1 bucket")
	}
	s, err := summarize(*in, *buckets)
	if err != nil {
		return err
	}
	s.print(os.Stdout)
	return nil
}

// kinds orders the count line; a rejected establish counts as "reject".
var kinds = []string{"establish", "reject", "terminate", "fail_link", "repair_link", "term"}

// summary is what one directory's record tail says.
type summary struct {
	snapshotSeq uint64         // the tail starts after it (0: no snapshot)
	restored    int            // connections alive in the snapshot
	records     int            // records in the tail
	counts      map[string]int // by kind
	impact      stats.Running  // connections activated or dropped, per failure
	dropped     int
	points      []point // the state after each bucket's last record
}

type point struct {
	seq   uint64
	alive int
	avgBW float64
}

// summarize reads dir without writing to it, restores its snapshot and
// steps the restored manager through the tail, bucketing the trajectory by
// record.
func summarize(dir string, buckets int) (*summary, error) {
	meta, err := core.ReadMeta(dir)
	if err != nil {
		return nil, err
	}
	sys, mcfg, err := meta.Build()
	if err != nil {
		return nil, err
	}
	rec, err := journal.Read(dir)
	if err != nil {
		return nil, err
	}
	head := *rec
	head.Events = nil
	m, err := server.Rebuild(sys.Graph(), mcfg, &head)
	if err != nil {
		return nil, err
	}
	n := len(rec.Events)
	s := &summary{snapshotSeq: rec.SnapshotSeq, restored: m.AliveCount(), records: n, counts: map[string]int{}}
	for i, ev := range rec.Events {
		kind := ev.Kind.String()
		if ev.Kind != journal.KindTerm { // a replication fence: no manager state
			out, err := m.Apply(ev)
			switch {
			case errors.Is(err, manager.ErrRejected), errors.Is(err, qos.ErrInvalidSpec):
				kind = "reject"
			case err != nil:
				return nil, fmt.Errorf("replay seq %d (%s): %w", ev.Seq, ev, err)
			case out.Failure != nil:
				s.impact.Observe(float64(len(out.Failure.Activated) + len(out.Failure.Dropped)))
				s.dropped += len(out.Failure.Dropped)
			}
		}
		s.counts[kind]++
		if (i+1)*buckets/n > i*buckets/n { // record i closes a bucket
			s.points = append(s.points, point{seq: ev.Seq, alive: m.AliveCount(), avgBW: m.AverageBandwidth()})
		}
	}
	return s, nil
}

func (s *summary) print(w io.Writer) {
	if s.snapshotSeq > 0 {
		fmt.Fprintf(w, "snapshot: seq %d, %d connections alive\n", s.snapshotSeq, s.restored)
	}
	fmt.Fprintf(w, "events: %d total", s.records)
	for _, k := range kinds {
		if s.counts[k] > 0 {
			fmt.Fprintf(w, "  %s=%d", k, s.counts[k])
		}
	}
	fmt.Fprintln(w)
	if s.impact.N() > 0 {
		fmt.Fprintf(w, "failure impact: %.2f affected connections per failure (max %.0f over %d failures), %d dropped\n",
			s.impact.Mean(), s.impact.Max(), s.impact.N(), s.dropped)
	}
	if len(s.points) == 0 {
		return
	}
	fmt.Fprintf(w, "\n%-12s %-8s %-10s\n", "seq", "alive", "avg bw")
	for _, p := range s.points {
		fmt.Fprintf(w, "%-12d %-8d %-10.1f\n", p.seq, p.alive, p.avgBW)
	}
}
