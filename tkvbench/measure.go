package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// Phases of a closed-loop run: clients warm up, then measure, then stop.
const (
	phaseWarm int32 = iota
	phaseMeasure
	phaseStop
)

// warmUp is the unmeasured time clients run before the window opens.
const warmUp = time.Second

// processSnap is the process state read at a window edge.
type processSnap struct {
	at    time.Time
	cpu   time.Duration // user + system
	alloc uint64        // cumulative heap bytes allocated
	gc    uint32
}

func snapProcess() processSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return processSnap{
		at:    time.Now(),
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: ms.TotalAlloc,
		gc:    ms.NumGC,
	}
}

// maxRSSMB is the process's peak resident set so far.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// window is one measured interval of a closed-loop run.
type window struct {
	from, to processSnap
}

// e2e fills the process-level end-to-end metrics for ops completed
// requests in the window.
func (w window) e2e(ops int64, m map[string]float64) {
	el := w.to.at.Sub(w.from.at).Seconds()
	n := float64(max(ops, 1))
	m["ops_per_s"] = float64(ops) / el
	m["cpu_us_per_op"] = float64(w.to.cpu-w.from.cpu) / 1e3 / n
	m["alloc_bytes_per_op"] = float64(w.to.alloc-w.from.alloc) / n
	m["max_rss_mb"] = maxRSSMB()
}

// gcCycles is the number of garbage collections that ended in the window.
func (w window) gcCycles() float64 { return float64(w.to.gc - w.from.gc) }

// loop is what a closed loop's clients share: the phase they poll, and
// the window's start, written before phase turns phaseMeasure.
type loop struct {
	phase atomic.Int32
	start time.Time
}

// closedLoop runs body on each of n clients: warm-up, a measured window of
// the given length, then stop. body polls lp.phase and returns once it
// reads phaseStop. before and after run at the window's edges while the
// clients are running, so counters read there bracket the window.
func closedLoop(n int, seconds int, body func(id int, lp *loop), before, after func()) window {
	var lp loop
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body(id, &lp)
		}()
	}
	time.Sleep(warmUp)
	before()
	var w window
	w.from = snapProcess()
	lp.start = w.from.at
	lp.phase.Store(phaseMeasure)
	time.Sleep(time.Duration(seconds) * time.Second)
	lp.phase.Store(phaseStop)
	w.to = snapProcess()
	after()
	wg.Wait()
	return w
}

// Ceilings on one client's request rate, by which its latency sample and
// span buffers are sized: about ten times the rates measured on the
// reference host (kv clients ~30k requests/s each, stm-rbtree threads
// ~100k transactions/s each). A client that outruns its buffer stops the
// run rather than grow the buffer inside the window.
const (
	kvMaxRate  = 250_000
	stmMaxRate = 1_000_000
)

// offHeap returns an empty slice with room for n elements, mapped outside
// the Go heap. Pages cost memory only once written, and neither the
// mapping nor its filling counts as the program's allocation or adds to
// the heap the collector paces itself by. T must hold no pointers.
func offHeap[T any](n int) []T {
	var zero T
	size := max(n, 1) * int(unsafe.Sizeof(zero))
	b, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_PRIVATE|syscall.MAP_ANON|syscall.MAP_NORESERVE)
	if err != nil {
		panic(fmt.Sprintf("tkvbench: mapping a %d-byte buffer: %v", size, err))
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), max(n, 1))[:0]
}

// samples holds one latency class's durations in nanoseconds.
type samples []uint32

// newSamples returns an off-heap buffer for rate samples per second over
// a window of the given length.
func newSamples(rate, seconds int) samples { return offHeap[uint32](rate * seconds) }

// add records d in a buffer from newSamples; it never grows the buffer.
func (s *samples) add(d time.Duration) {
	if len(*s) == cap(*s) {
		panic("tkvbench: latency sample buffer full; raise the client rate ceiling")
	}
	*s = append(*s, nanos(d))
}

// nanos is d in nanoseconds, saturated at the largest uint32.
func nanos(d time.Duration) uint32 { return uint32(min(d, 1<<32-1)) }

// sliceLen is the length of the slices a window's latency samples are cut
// into. Each end-to-end p99 is the median of the slices' p99s: the tail of
// a typical tenth of a second. A stall that covers fewer than half of the
// slices — a garbage collection's mark phase, a burst of interference from
// the host — moves it far less than it moves the p99 over every sample of
// the window, which depends on how many such stalls the window happens to
// hold.
const sliceLen = 100 * time.Millisecond

// latencies is one client's latency samples by class, in the order they
// were taken, cut at the window's slice edges.
type latencies struct {
	class  [numClasses]samples
	cuts   [][numClasses]int // lengths of class at each slice edge passed so far
	slices int
}

// newLatencies returns off-heap buffers for rate samples per second of each
// class over a window of the given length.
func newLatencies(rate, seconds int) *latencies {
	n := max(int(time.Duration(seconds)*time.Second/sliceLen), 1)
	l := &latencies{slices: n, cuts: make([][numClasses]int, 0, n-1)}
	for cl := range l.class {
		l.class[cl] = newSamples(rate, seconds)
	}
	return l
}

// add records a sample of class cl taken from t0 to t1 in the window that
// started at start. A sample that ends after the window's last slice edge
// belongs to the last slice.
func (l *latencies) add(cl int, start, t0, t1 time.Time) {
	for k := min(int(t1.Sub(start)/sliceLen), l.slices-1); len(l.cuts) < k; {
		var c [numClasses]int
		for i := range c {
			c[i] = len(l.class[i])
		}
		l.cuts = append(l.cuts, c)
	}
	l.class[cl].add(t1.Sub(t0))
}

// slice returns the samples of class cl in slice k.
func (l *latencies) slice(cl, k int) samples {
	s := l.class[cl]
	lo, hi := len(s), len(s)
	if k == 0 {
		lo = 0
	} else if k-1 < len(l.cuts) {
		lo = l.cuts[k-1][cl]
	}
	if k < len(l.cuts) {
		hi = l.cuts[k][cl]
	}
	return s[lo:hi]
}

// lat is a latency summary of one class.
type lat struct {
	n        int
	p50, p99 float64 // microseconds
	beyond   int     // samples above p99
}

// summarize sorts the merged samples and reads the median and 99th
// percentile by linear interpolation between closest ranks.
func summarize(parts ...samples) lat {
	var all samples
	for _, p := range parts {
		all = append(all, p...)
	}
	if len(all) == 0 {
		return lat{}
	}
	slices.Sort(all)
	l := lat{n: len(all), p50: quantile(all, 0.50), p99: quantile(all, 0.99)}
	cut := uint32(l.p99 * 1e3)
	i, _ := slices.BinarySearch(all, cut+1)
	l.beyond = len(all) - i
	return l
}

// windowLat is the end-to-end summary of one latency class: the p50 over
// every sample of the window, the p99 as the median of the slices' p99s,
// and the whole window's summary beside them.
type windowLat struct {
	p50, p99 float64
	all      lat
	slices   int // slices that held samples
}

// summarizeWindow merges the given classes of every client.
func summarizeWindow(ls []*latencies, classes ...int) windowLat {
	var parts []samples
	for _, l := range ls {
		for _, cl := range classes {
			parts = append(parts, l.class[cl])
		}
	}
	w := windowLat{all: summarize(parts...)}
	w.p50 = w.all.p50
	var p99s []float64
	for k := 0; k < ls[0].slices; k++ {
		parts = parts[:0]
		for _, l := range ls {
			for _, cl := range classes {
				parts = append(parts, l.slice(cl, k))
			}
		}
		if s := summarize(parts...); s.n > 0 {
			p99s = append(p99s, s.p99)
		}
	}
	w.slices = len(p99s)
	if w.slices > 0 {
		w.p99 = median(p99s)
	}
	return w
}

// String prints the summary on a comment line.
func (w windowLat) String() string {
	return fmt.Sprintf("n=%d p50_us=%.3f p99_us=%.3f (median of %d slices of %v) window_p99_us=%.3f beyond_window_p99=%d",
		w.all.n, w.p50, w.p99, w.slices, sliceLen, w.all.p99, w.all.beyond)
}

func quantile(sorted samples, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return float64(sorted[len(sorted)-1]) / 1e3
	}
	frac := pos - float64(i)
	return (float64(sorted[i])*(1-frac) + float64(sorted[i+1])*frac) / 1e3
}

// median of a small set of set-up timings.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
