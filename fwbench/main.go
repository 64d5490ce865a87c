// Command fwbench is the serving benchmark of the fadewich repository.
// It drives the paper deployment shape (paper office, nine sensors =
// 72 RSSI streams at 5 Hz, 64 trained offices over four simulated
// deployments) through one of three workloads, checks every
// office's action sequence against a synchronous reference fleet, and
// prints the end-to-end metrics (or, with --trace 1, the per-layer
// ledger) as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Diagnostics (environment, sample counts, tails) go to standard error.
// See README.md in this directory for the workloads, the metrics and
// which layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"fadewich/internal/core"
	"fadewich/internal/vmath"
)

// heldOutSeed is the seed no tuning used: a later performance claim
// must also hold on it.
const heldOutSeed = 9173

// setupReps is how many times a run builds its system from scratch;
// setup_s is the median, and the last build is the one measured.
const setupReps = 3

// warmup is discarded before the measured window opens.
const warmup = 2 * time.Second

type runConfig struct {
	seed    uint64
	seconds time.Duration
	dir     string // scratch directory for segment logs and spec files
}

// request is one unit of offered load: serving steps [from, to) of a
// set of offices, in the order the run issued it. The trace replays
// the sequence.
type request struct {
	offices  []int
	from, to int
}

func (r request) ticks() int { return len(r.offices) * (r.to - r.from) }

// setupTimes is one build's cost breakdown.
type setupTimes struct {
	total, generate, trainFeed, train time.Duration
	stolen                            float64 // hypervisor steal share during the build
}

// outcome is what a workload's untraced run hands back for gating and
// reporting.
type outcome struct {
	fx         *fixture
	attempted  int
	failed     int
	failures   []string
	served     []int                      // serving steps sent to each office
	outputs    map[string][][]core.Action // per-office actions of each output checked
	spans      []span                     // tick-carrying spans, for rates and window tick counts
	reqLatency []sample                   // requests issued inside the window
	actLatency []sample                   // actions whose tick was sent inside the window
	lateness   []time.Duration            // open loop only: send time minus due time
	paced      bool                       // open loop: the achieved rate is the offered one
	viaHTTP    bool                       // load entered through serve.Server's HTTP API
	segmentLog bool                       // a codec-1 segment log was attached
	compressed bool                       // frames left the fleet compressed
	win        window
	steal      []float64       // hypervisor steal share per rateInterval of the window
	cpuMarks   []time.Duration // process CPU at each rateInterval boundary of the window
	before     procSnap
	after      procSnap
	peakRSS    float64
	setup      []setupTimes
	requests   []request
	layer      map[string]float64 // per-layer counters read from the run
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

// measureWindow samples process resources at the window's edges, and
// process CPU, resident size and the hypervisor's steal at every
// rateInterval boundary in it.
func (o *outcome) measureWindow(start time.Time, seconds time.Duration) (done func()) {
	o.win = window{start: start.Add(warmup), end: start.Add(warmup + seconds)}
	ch := make(chan struct{})
	go func() {
		defer close(ch)
		sleepUntil(o.win.start)
		o.before = snapProc()
		prev := readHost()
		o.cpuMarks = append(o.cpuMarks, processCPU())
		o.peakRSS = rssMB()
		for at := o.win.start.Add(rateInterval); !at.After(o.win.end); at = at.Add(rateInterval) {
			sleepUntil(at)
			h := readHost()
			o.cpuMarks = append(o.cpuMarks, processCPU())
			o.peakRSS = max(o.peakRSS, rssMB())
			o.steal = append(o.steal, stolenShare(prev, h))
			prev = h
		}
		o.after = snapProc()
	}()
	return func() { <-ch }
}

// running is the share of wanted CPU time the hypervisor granted
// around instant t (1 on bare metal).
func (o *outcome) running(t time.Time) float64 {
	if len(o.steal) == 0 {
		return 1
	}
	i := int(t.Sub(o.win.start) / rateInterval)
	return 1 - o.steal[max(0, min(i, len(o.steal)-1))]
}

// sample is one latency observation, stamped with its start.
type sample struct {
	at time.Time
	d  time.Duration
}

// stealFreeMs converts latency samples to milliseconds with the time
// the hypervisor withheld from the CPUs taken out: a CPU-bound wait
// stretches by 1/(1−steal).
func (o *outcome) stealFreeMs(xs []sample) (raw, adjusted []float64) {
	for _, s := range xs {
		ms := float64(s.d) / float64(time.Millisecond)
		raw = append(raw, ms)
		adjusted = append(adjusted, ms*o.running(s.at))
	}
	return raw, adjusted
}

// buildRepeated builds a system setupReps times, tearing down all but
// the last build.
func buildRepeated[T any](build func() (T, setupTimes, error), teardown func(T)) (T, []setupTimes, error) {
	var sut T
	var times []setupTimes
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			// Collect the torn-down build, so the next one starts from
			// the same heap as the first.
			teardown(sut)
			debug.FreeOSMemory()
		}
		host := readHost()
		s, t, err := build()
		t.stolen = stolenShare(host, readHost())
		if err != nil {
			return sut, nil, err
		}
		sut = s
		times = append(times, t)
	}
	// Start serving from a collected heap: what set-up left behind is
	// not part of the serving footprint.
	debug.FreeOSMemory()
	return sut, times, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"serve-bulk":    runServeBulk,
	"fleet-inproc":  runFleetInproc,
	"cluster-paced": runClusterPaced,
}

func main() {
	name := flag.String("workload", "", "serve-bulk, fleet-inproc or cluster-paced")
	seed := flag.Uint64("seed", 1, "dataset and stagger seed")
	seconds := flag.Int("seconds", 10, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 replays the run layer by layer and prints the per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for scratch files (segment logs, spec files)")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	diag("%s", envLine(*seed, *name, vmath.ActivePath()))

	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fatalf("scratch dir: %v", err)
	}
	code := execute(run, runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, dir: dir}, *trace == 1)
	if err := os.RemoveAll(dir); err != nil {
		diag("remove scratch dir: %v", err)
	}
	os.Exit(code)
}

// execute runs, gates and reports one workload; it returns the exit
// code.
func execute(run func(runConfig) (*outcome, error), cfg runConfig, traced bool) int {
	out, err := run(cfg)
	if err != nil {
		diag("run failed: %v", err)
		return 1
	}
	gate(out)

	res := result{Attempted: out.attempted, Failed: out.failed}
	if traced && out.failed == 0 {
		metrics, err := traceRun(out, filepath.Join(cfg.dir, "trace"), cfg.seconds)
		if err != nil {
			out.fail("trace: %v", err)
		}
		res.Metrics = metrics
	} else {
		res.Metrics = endToEnd(out)
	}
	res.Failed = out.failed
	res.Correct = out.failed == 0
	for _, f := range out.failures {
		diag("FAILED: %s", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("marshal result: %v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// gate checks every output against the reference fleet, then proves
// the check can fail.
func gate(out *outcome) {
	start := time.Now()
	if len(out.reqLatency) == 0 || len(out.actLatency) == 0 {
		out.fail("the window holds %d request and %d action latency samples; both must be non-empty", len(out.reqLatency), len(out.actLatency))
	}
	want, err := reference(out.fx, out.served)
	if err != nil {
		out.fail("reference: %v", err)
		return
	}
	names := make([]string, 0, len(out.outputs))
	for n := range out.outputs {
		names = append(names, n)
	}
	sort.Strings(names)
	actions := 0
	for _, w := range want {
		actions += len(w)
	}
	for _, n := range names {
		if bad, first := compareActions(out.outputs[n], want); bad > 0 {
			out.fail("%s: %d of %d offices diverge from the reference; first: %s", n, bad, len(want), first)
		}
	}
	if out.failed == 0 {
		if err := gateSelfTest(out.outputs[names[0]], want); err != nil {
			out.fail("%v", err)
		}
	}
	diag("gate: %d outputs x %d offices, %d reference actions, checked in %.1fs", len(names), len(want), actions, time.Since(start).Seconds())
}

// endToEnd computes the gated metrics from the untraced run. Wall-clock
// figures have the hypervisor's stolen CPU time taken out (see
// README.md); the raw figures go to the diagnostics beside them.
func endToEnd(o *outcome) map[string]metric {
	ticks := ticksIn(o.spans, o.win)
	cpu := o.after.cpu - o.before.cpu
	rawRates := intervalRates(o.spans, o.win)
	rates := make([]float64, len(rawRates))
	for i, r := range rawRates {
		rates[i] = r / o.running(o.win.start.Add(time.Duration(i)*rateInterval))
	}
	var setups, rawSetups []float64
	for _, s := range o.setup {
		rawSetups = append(rawSetups, s.total.Seconds())
		setups = append(setups, s.total.Seconds()*(1-s.stolen))
	}
	rawReq, req := o.stealFreeMs(o.reqLatency)
	rawAct, act := o.stealFreeMs(o.actLatency)
	// CPU per tick is the median over the intervals too, so a burst of
	// contention in one interval does not move it.
	var cpuPerTick []float64
	for i := 0; i+1 < len(o.cpuMarks); i++ {
		a := o.win.start.Add(time.Duration(i) * rateInterval)
		if n := ticksInRange(o.spans, a, a.Add(rateInterval)); n > 0 {
			cpuPerTick = append(cpuPerTick, float64(o.cpuMarks[i+1]-o.cpuMarks[i])/float64(time.Microsecond)/n)
		}
	}
	m := map[string]metric{
		"ticks_per_s":            {quantile(rates, 0.5), "1/s"},
		"cpu_us_per_tick":        {quantile(cpuPerTick, 0.5), "us"},
		"request_latency_p50_ms": {quantile(req, 0.5), "ms"},
		"action_latency_p50_ms":  {quantile(act, 0.5), "ms"},
		"setup_s":                {quantile(setups, 0.5), "s"},
		"peak_rss_mb":            {o.peakRSS, "MB"},
	}
	if o.paced {
		// An open loop's achieved rate only echoes the offered one, so
		// report the rate the host's CPUs could sustain at the measured
		// cost per tick instead.
		diag("ticks_per_s: paced; achieved %.0f/s raw (median of %d x %v intervals); reported = GOMAXPROCS / CPU per tick",
			quantile(rawRates, 0.5), len(rates), rateInterval)
		m["ticks_per_s"] = metric{float64(runtime.GOMAXPROCS(0)) * 1e6 / m["cpu_us_per_tick"].Value, "1/s"}
	} else {
		diag("ticks_per_s: median of %d x %v intervals, raw %.0f", len(rates), rateInterval, quantile(rawRates, 0.5))
	}
	span := o.win.end.Sub(o.win.start)
	diag("ticks_per_s: %.0f; %.0f ticks in the %v window", m["ticks_per_s"].Value, ticks, span)
	diag("cpu_us_per_tick: median of %d intervals %.3f us; whole window %.3f s CPU / %.0f ticks = %.3f us; the process used %.2f CPUs",
		len(cpuPerTick), m["cpu_us_per_tick"].Value, cpu.Seconds(), ticks, float64(cpu.Microseconds())/ticks, cpu.Seconds()/span.Seconds())
	diag("host: hypervisor steal per %v interval: %s", rateInterval, percents(o.steal))
	for _, l := range []struct {
		name     string
		raw, adj []float64
	}{{"request_latency", rawReq, req}, {"action_latency", rawAct, act}} {
		tn, tv := tailQuantile(l.adj)
		diag("%s: n=%d p50=%.3f ms %s=%.3f ms max=%.3f ms (raw p50=%.3f ms)",
			l.name, len(l.adj), quantile(l.adj, 0.5), tn, tv, quantile(l.adj, 1), quantile(l.raw, 0.5))
	}
	if len(o.lateness) > 0 {
		late := msOf(o.lateness)
		diag("generator lateness: n=%d p50=%.3f ms p99=%.3f ms max=%.3f ms", len(late), quantile(late, 0.5), quantile(late, 0.99), quantile(late, 1))
	}
	diag("setup_s: %.3f s (median of %d builds; raw %v)", m["setup_s"].Value, len(setups), rawSetups)
	return m
}

func percents(xs []float64) string {
	var b strings.Builder
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.0f%%", 100*x)
	}
	return b.String()
}
