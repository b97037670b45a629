package main

import (
	"fmt"
	"math"
	"math/bits"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// hist is a log-linear histogram of non-negative int64 samples: values
// below 2^subBits land in exact buckets, larger ones in 2^subBits
// sub-buckets per power of two, so every bucket is within 1/64 (~1.6%)
// of its value. Quantiles interpolate inside the bucket. One goroutine
// owns a hist.
type hist struct {
	counts []uint64
	n      uint64
	sum    float64
	max    int64
}

const subBits = 6

func newHist() *hist { return &hist{counts: make([]uint64, (64-subBits+1)<<subBits)} }

func bucketOf(v int64) int {
	if v < 1<<subBits {
		if v < 0 {
			v = 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - subBits // ≥ 1
	return e<<subBits + int(uint64(v)>>uint(e-1)) - 1<<subBits
}

// bucketRange returns the [lo, hi) value range of bucket i.
func bucketRange(i int) (lo, hi float64) {
	if i < 1<<subBits {
		return float64(i), float64(i + 1)
	}
	e := i >> subBits
	m := i&(1<<subBits-1) + 1<<subBits
	w := math.Ldexp(1, e-1)
	return float64(m) * w, float64(m+1) * w
}

func (h *hist) add(v int64) {
	h.counts[bucketOf(v)]++
	h.n++
	h.sum += float64(v)
	if v > h.max {
		h.max = v
	}
}

// quantile returns the q-quantile, interpolated linearly inside its
// bucket (0 for an empty histogram).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= target {
			lo, hi := bucketRange(i)
			if hi > float64(h.max)+1 {
				hi = float64(h.max) + 1
			}
			return lo + (hi-lo)*(target-seen)/float64(c)
		}
		seen += float64(c)
	}
	return float64(h.max)
}

// median returns the median of xs (0 when empty); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTime is the time the hypervisor ran other guests on this
// machine's processors: the steal column of /proc/stat's aggregate cpu
// line, which sums every online processor, divided by the number of
// per-processor lines — the share of elapsed time the process could not
// have used. It is 0 where /proc/stat has no such column.
func stealTime() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	var steal uint64
	cpus := 0
	for _, line := range strings.Split(string(b), "\n") {
		if !strings.HasPrefix(line, "cpu") {
			continue
		}
		fields := strings.Fields(line)
		if fields[0] != "cpu" {
			cpus++
			continue
		}
		if len(fields) < 9 {
			return 0
		}
		if steal, err = strconv.ParseUint(fields[8], 10, 64); err != nil {
			return 0
		}
	}
	if cpus == 0 {
		return 0
	}
	// USER_HZ is 100 on every Linux the runtime supports.
	return time.Duration(steal) * 10 * time.Millisecond / time.Duration(cpus)
}

// unstolen is a wall-clock interval less the steal measured over it. An
// interval of which steal took more than half measured the other guests,
// not the program, and is refused with an error.
func unstolen(wall, steal time.Duration) (time.Duration, error) {
	if d := wall - steal; wall > 0 && d >= wall/2 {
		return d, nil
	}
	return 0, fmt.Errorf("hypervisor steal %v of a %v interval: the measurement is refused", steal, wall)
}

// runtimeSample reads the Go runtime figures the go.* metrics are cut
// from, without stopping the world.
type runtimeSample struct {
	allocBytes uint64
	gcCycles   uint64
	gcCPU      time.Duration // collector CPU outside the goroutines' own work

	liveBytes uint64 // heap marked live by the latest GC cycle
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/heap/live:bytes",
	"/cpu/classes/gc/mark/assist:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	// Mark assists run inside whichever goroutine allocates, so they are
	// already in the spans of the layer that allocated; only the rest of
	// the collector's CPU is a layer of its own.
	gcCPU := time.Duration((f(2) - f(4)) * 1e9)
	return runtimeSample{allocBytes: u(0), gcCycles: u(1), gcCPU: gcCPU, liveBytes: u(3)}
}

// gcPauseTotal is the cumulative stop-the-world pause time. It stops the
// world itself, so it is read only at phase boundaries.
func gcPauseTotal() time.Duration {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return time.Duration(ms.PauseTotalNs)
}

// heapPeak tracks the live heap — what the garbage collector found
// reachable — rather than the heap between cycles, which measures when
// the collector happened to run as much as the program. checkpoint
// forces a cycle at a phase boundary (after set-up, at the end of the
// measured window) and keeps the largest such reading: the state the
// workload retains. From the first checkpoint on, a goroutine also
// records the live heap at the end of every cycle the program runs on
// its own: the working set of the work in flight, such as a recompile.
// The peak is the larger of the largest checkpoint and the 90th
// percentile of those cycles; the single largest cycle depends on what
// happened to be in flight at that instant and differs from run to run.
// stop ends the goroutine and waits for it. A nil *heapPeak ignores
// checkpoints.
type heapPeak struct {
	mu        sync.Mutex
	checked   uint64
	measuring bool      // set by the first checkpoint
	cycles    []float64 // live bytes at the end of each GC cycle since
	lastGC    uint64
	done      chan struct{}
	wg        sync.WaitGroup
}

func startHeapPeak() *heapPeak {
	p := &heapPeak{done: make(chan struct{}), lastGC: readRuntime().gcCycles}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-p.done:
				return
			case <-t.C:
				p.note()
			}
		}
	}()
	return p
}

// note records the live heap of a GC cycle it has not seen yet.
func (p *heapPeak) note() {
	rt := readRuntime()
	p.mu.Lock()
	if rt.gcCycles != p.lastGC {
		p.lastGC = rt.gcCycles
		if p.measuring {
			p.cycles = append(p.cycles, float64(rt.liveBytes))
		}
	}
	p.mu.Unlock()
}

func (p *heapPeak) checkpoint() {
	if p == nil {
		return
	}
	runtime.GC()
	rt := readRuntime()
	p.mu.Lock()
	p.lastGC = rt.gcCycles // the forced cycle is not one of the program's
	p.measuring = true
	if rt.liveBytes > p.checked {
		p.checked = rt.liveBytes
	}
	p.mu.Unlock()
}

func (p *heapPeak) stop() uint64 {
	close(p.done)
	p.wg.Wait()
	p.mu.Lock()
	defer p.mu.Unlock()
	peak := p.checked
	if len(p.cycles) > 0 {
		s := append([]float64(nil), p.cycles...)
		sort.Float64s(s)
		if q := uint64(s[int(0.9*float64(len(s)-1))]); q > peak {
			peak = q
		}
	}
	return peak
}
