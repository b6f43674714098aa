// Package calib measures how fast the machine is running while a benchmark
// window is open. The benchmark's host is a shared one whose speed moves by
// 15–30 % in phases of a minute or two — longer than a run, so no statistic
// over a run's own samples removes them. A Probe runs a small fixed kernel
// every 20 ms on a thread of its own and records the thread CPU time each
// execution took; the median over a window, against the kernel's nominal
// time, is the window's speed factor. drbench scales its CPU-bound timings
// by it, which expresses them at the nominal machine speed (see
// bench/README.md for how well that works, and for when it is not applied).
package calib

import (
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

const (
	// Nominal is the kernel's median CPU time in a quiet phase of the
	// machine the benchmark's bounds were derived on. It only fixes the
	// scale of the calibrated metrics: a factor above 1 means the machine is
	// running slower than that.
	Nominal = 215 * time.Microsecond
	period  = 20 * time.Millisecond

	kernelSteps = 100_000
	kernelWords = 32 << 10 // 256 KB of uint64: the kernel misses L1, not L2
)

// threadCPUTime is clock_gettime(2)'s CLOCK_THREAD_CPUTIME_ID.
const threadCPUTime = 3

func threadCPU() time.Duration {
	var ts syscall.Timespec
	// The call cannot fail with a valid clock and pointer.
	_, _, _ = syscall.Syscall(syscall.SYS_CLOCK_GETTIME, threadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// Probe samples the machine's speed until stopped.
type Probe struct {
	stop chan struct{}
	done chan struct{}

	mu      sync.Mutex
	samples []time.Duration
	lap     int // first sample of the current lap
}

// Start begins sampling.
func Start() *Probe {
	p := &Probe{stop: make(chan struct{}), done: make(chan struct{})}
	go p.run()
	return p
}

func (p *Probe) run() {
	// CPU time is per thread, so the kernel must start and end on one.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	defer close(p.done)
	buf := make([]uint64, kernelWords)
	x := uint64(1)
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-tick.C:
		}
		t0 := threadCPU()
		for i := 0; i < kernelSteps; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			buf[(x>>33)%kernelWords] += x
		}
		took := threadCPU() - t0
		p.mu.Lock()
		p.samples = append(p.samples, took)
		p.mu.Unlock()
	}
}

// Lap returns the speed factor over the samples taken since the previous
// Lap (or Start), and how many there were.
func (p *Probe) Lap() (float64, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	lap := p.samples[p.lap:]
	p.lap = len(p.samples)
	return factor(lap), len(lap)
}

// Stop ends sampling and returns the speed factor over everything sampled
// since Start, and the number of samples.
func (p *Probe) Stop() (float64, int) {
	close(p.stop)
	<-p.done
	return factor(p.samples), len(p.samples)
}

// factor is the median of samples over Nominal; 1 when there are none (a
// window shorter than the sampling period).
func factor(samples []time.Duration) float64 {
	if len(samples) == 0 {
		return 1
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[len(s)/2]) / float64(Nominal)
}
