// Package daemon spawns the real drserverd binary for one workload — a
// fresh process (or primary + standby pair) on a free loopback port with a
// private data directory — and reads its CPU time and peak memory from
// /proc.
package daemon

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"drqos/bench/script"
)

// clockTick is the kernel's USER_HZ: /proc/<pid>/stat reports CPU time in
// these units. It is 100 on every Linux configuration Go supports.
const clockTick = 10 * time.Millisecond

// Proc is one running drserverd.
type Proc struct {
	URL     string
	cmd     *exec.Cmd
	log     string
	exited  chan struct{} // closed once the process has been reaped
	exitErr error         // what Wait returned; valid after exited
}

// Deployment is every daemon process of one workload. Procs[0] serves the
// load; Procs[1], when present, is the warm standby.
type Deployment struct {
	Procs []*Proc
}

// running holds every process started and not yet reaped, so that KillAll
// can end them on a path that never reaches Deployment.Stop.
var running = struct {
	sync.Mutex
	procs  map[*Proc]struct{}
	closed bool // KillAll has run: nothing more may start
}{procs: map[*Proc]struct{}{}}

// KillAll kills every drserverd still running and waits until each has
// ended. It is for the way out on a signal; orderly runs use Stop.
func KillAll() {
	running.Lock()
	running.closed = true
	procs := make([]*Proc, 0, len(running.procs))
	for p := range running.procs {
		procs = append(procs, p)
	}
	running.Unlock()
	for _, p := range procs {
		_ = p.cmd.Process.Kill()
	}
	for _, p := range procs {
		<-p.exited
	}
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

func start(bin, logPath string, args ...string) (*Proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	// Should drbench die without reaching Stop or KillAll (a panic, SIGKILL),
	// the kernel ends the daemon with it: no run leaves one behind to serve
	// the next.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p := &Proc{URL: "http://" + addr, cmd: cmd, log: logPath, exited: make(chan struct{})}
	running.Lock()
	defer running.Unlock()
	if running.closed {
		return nil, errors.New("shutting down")
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	running.procs[p] = struct{}{}
	go func() {
		p.exitErr = cmd.Wait()
		running.Lock()
		delete(running.procs, p)
		running.Unlock()
		close(p.exited)
	}()
	return p, nil
}

// Start launches w's deployment with data directories under dir and waits
// until every process answers /readyz.
func Start(ctx context.Context, bin, dir string, w script.Workload) (*Deployment, error) {
	base := []string{
		"-kind", w.Kind, "-nodes", strconv.Itoa(script.Nodes),
		"-seed", strconv.Itoa(script.TopologySeed), "-shards", strconv.Itoa(w.Shards),
	}
	d := &Deployment{}
	add := func(name string, extra ...string) (*Proc, error) {
		args := append([]string(nil), base...)
		if w.Durable {
			args = append(args, "-data-dir", filepath.Join(dir, name), "-fsync", "1")
		}
		p, err := start(bin, filepath.Join(dir, name+".log"), append(args, extra...)...)
		if err != nil {
			return nil, err
		}
		d.Procs = append(d.Procs, p)
		return p, nil
	}
	var err error
	if w.Replica {
		// The benchmark measures steady replication, not failover: a generous
		// failover timeout (lease = half of it) keeps a scheduling hiccup on
		// the two-core machine from fencing the primary mid-run.
		const failover = "5s"
		var primary *Proc
		if primary, err = add("primary", "-failover-timeout", failover); err == nil {
			_, err = add("standby", "-replica-of", primary.URL, "-failover-timeout", failover)
		}
	} else {
		_, err = add("daemon")
	}
	for i := 0; err == nil && i < len(d.Procs); i++ {
		err = d.Procs[i].waitReady(ctx)
	}
	if err != nil {
		d.Stop()
		return nil, err
	}
	return d, nil
}

// waitReady polls /readyz until it answers 200, the process exits, or ctx
// ends. A lease-fenced primary turns ready once its standby starts polling.
func (p *Proc) waitReady(ctx context.Context) error {
	for {
		resp, err := http.Get(p.URL + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-p.exited:
			return fmt.Errorf("drserverd exited before ready: %v\n%s", p.exitErr, p.LogTail())
		case <-ctx.Done():
			return fmt.Errorf("drserverd at %s not ready: %w\n%s", p.URL, ctx.Err(), p.LogTail())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// LogTail returns the end of the daemon's log for error reports.
func (p *Proc) LogTail() string {
	b, err := os.ReadFile(p.log)
	if err != nil {
		return ""
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// Stop terminates every process (SIGTERM, then SIGKILL after the drain
// budget) and waits until each has exited. It reports the first process
// that did not exit cleanly.
func (d *Deployment) Stop() error {
	var first error
	// Standby first, so the primary's drain is not waiting on a peer.
	for i := len(d.Procs) - 1; i >= 0; i-- {
		p := d.Procs[i]
		_ = p.cmd.Process.Signal(syscall.SIGTERM) // already exited is fine: Wait reports it
		var err error
		select {
		case <-p.exited:
			err = p.exitErr
		case <-time.After(15 * time.Second):
			_ = p.cmd.Process.Kill()
			<-p.exited
			err = errors.New("did not drain within 15s, killed")
		}
		if err != nil && first == nil {
			first = fmt.Errorf("drserverd at %s: %w\n%s", p.URL, err, p.LogTail())
		}
	}
	d.Procs = nil
	return first
}

// CPU returns the user+system CPU time all processes have consumed.
func (d *Deployment) CPU() (time.Duration, error) {
	var total time.Duration
	for _, p := range d.Procs {
		raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		// Fields after the parenthesized command name; utime and stime are
		// fields 14 and 15 of the line, 12 and 13 after the ") ".
		rest := raw[bytes.LastIndexByte(raw, ')')+2:]
		f := strings.Fields(string(rest))
		if len(f) < 13 {
			return 0, fmt.Errorf("short /proc stat line %q", raw)
		}
		ut, err1 := strconv.ParseInt(f[11], 10, 64)
		st, err2 := strconv.ParseInt(f[12], 10, 64)
		if err1 != nil || err2 != nil {
			return 0, fmt.Errorf("bad /proc stat line %q", raw)
		}
		total += time.Duration(ut+st) * clockTick
	}
	return total, nil
}

// PeakRSSMB returns the largest resident-set high-water mark (VmHWM) among
// the processes, in MB.
func (d *Deployment) PeakRSSMB() (float64, error) {
	var peak float64
	for _, p := range d.Procs {
		raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		found := false
		for _, line := range strings.Split(string(raw), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err != nil {
					return 0, fmt.Errorf("bad VmHWM line %q", line)
				}
				peak = max(peak, kb/1024)
				found = true
			}
		}
		if !found {
			return 0, errors.New("no VmHWM in /proc status")
		}
	}
	return peak, nil
}
