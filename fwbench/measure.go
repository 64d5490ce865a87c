package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// span is one timed operation carrying ticks: a request, a flush, or an
// epoch from its due time to its last acknowledgement.
type span struct {
	start, end time.Time
	ticks      int
}

// window is the measured interval; work outside it (warm-up, drain) is
// not reported.
type window struct{ start, end time.Time }

func (w window) contains(t time.Time) bool { return !t.Before(w.start) && t.Before(w.end) }

// overlap is the share of a span's ticks that fall inside [a, b),
// spreading the ticks evenly over the span's duration.
func overlap(s span, a, b time.Time) float64 {
	d := s.end.Sub(s.start)
	if d <= 0 {
		if !s.end.Before(a) && s.end.Before(b) {
			return float64(s.ticks)
		}
		return 0
	}
	lo, hi := s.start, s.end
	if lo.Before(a) {
		lo = a
	}
	if hi.After(b) {
		hi = b
	}
	if !hi.After(lo) {
		return 0
	}
	return float64(s.ticks) * float64(hi.Sub(lo)) / float64(d)
}

// ticksIn counts the ticks the spans carried inside the window.
func ticksIn(spans []span, w window) float64 { return ticksInRange(spans, w.start, w.end) }

// ticksInRange counts the ticks the spans carried inside [a, b).
func ticksInRange(spans []span, a, b time.Time) float64 {
	n := 0.0
	for _, s := range spans {
		n += overlap(s, a, b)
	}
	return n
}

// rateInterval is the fixed interval whose tick rates ticks_per_s takes
// the median of: short enough for ten or more samples per run, long
// enough to hold many requests.
const rateInterval = 500 * time.Millisecond

// intervalRates returns the tick rate of each whole rateInterval in the
// window.
func intervalRates(spans []span, w window) []float64 {
	var rates []float64
	for a := w.start; !a.Add(rateInterval).After(w.end); a = a.Add(rateInterval) {
		rates = append(rates, ticksInRange(spans, a, a.Add(rateInterval))/rateInterval.Seconds())
	}
	return rates
}

// quantile is the q-quantile of xs by linear interpolation (xs is not
// modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// tailQuantile is the highest of p99/p90 that leaves at least ten
// samples beyond it, with its name; "" when there are too few samples.
func tailQuantile(xs []float64) (string, float64) {
	switch {
	case len(xs) >= 1000:
		return "p99", quantile(xs, 0.99)
	case len(xs) >= 100:
		return "p90", quantile(xs, 0.90)
	}
	return "", 0
}

// procSnap is a process-wide resource reading at one instant.
type procSnap struct {
	at      time.Time
	cpu     time.Duration // user + system CPU of the whole process
	mallocs uint64
	gcCPU   float64 // seconds of CPU spent in the garbage collector
}

var gcSample = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}

// processCPU is the process's user + system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fatalf("getrusage: %v", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func snapProc() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(gcSample)
	return procSnap{
		at:      time.Now(),
		cpu:     processCPU(),
		mallocs: ms.Mallocs,
		gcCPU:   gcSample[0].Value.Float64(),
	}
}

// hostSnap is the machine's CPU time from /proc/stat, in clock ticks:
// busy is time its CPUs ran work, steal is time a hypervisor withheld
// from them while they had work to run (zero on bare metal).
type hostSnap struct{ busy, steal uint64 }

func readHost() hostSnap {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostSnap{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return hostSnap{}
	}
	var v [8]uint64 // user nice system idle iowait irq softirq steal
	for i := range v {
		if v[i], err = strconv.ParseUint(fields[i+1], 10, 64); err != nil {
			return hostSnap{}
		}
	}
	return hostSnap{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}
}

// stolenShare is the share of the CPU time the machine wanted between
// two readings that the hypervisor withheld.
func stolenShare(a, b hostSnap) float64 {
	busy, steal := b.busy-a.busy, b.steal-a.steal
	if busy+steal == 0 {
		return 0
	}
	return float64(steal) / float64(busy+steal)
}

// rssMB is the process's current resident set size (0 where
// /proc/self/statm is not available).
func rssMB() float64 {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(raw))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return float64(pages) * float64(os.Getpagesize()) / (1 << 20)
}

// sleepUntil blocks until t.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// msOf converts durations to milliseconds for percentile reporting.
func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

func diag(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "fwbench: "+format+"\n", args...)
}

func fatalf(format string, args ...any) {
	diag(format, args...)
	os.Exit(1)
}

// envLine describes the host and build every result was measured on.
func envLine(seed uint64, workload string, vmathPath string) string {
	return fmt.Sprintf("env: workload=%s seed=%d held_out_seed=%d nproc=%d GOMAXPROCS=%d go=%s vmath=%s",
		workload, seed, heldOutSeed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), vmathPath)
}
