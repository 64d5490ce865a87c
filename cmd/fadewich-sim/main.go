// Command fadewich-sim demonstrates the streaming FADEWICH System
// end-to-end: it generates a multi-day office dataset, drives the System
// through its training phase on the first days (auto-labelling variation
// windows from workstation idle times), trains the classifier, then runs
// the online phase on the final day and reports every deauthentication
// against the ground truth.
//
// With -offices K (K > 1) it scales the same pipeline to a fleet: K
// independent office deployments generate their datasets in parallel,
// train and serve as one engine.Fleet sharded across -parallel workers,
// and report the aggregate catch rate plus fleet throughput.
//
// With -office-config FILE the fleet is heterogeneous: FILE holds a JSON
// array of per-office overrides (floor plan, sensor count, rng seed, MD
// thresholds), one element per office, and each tenant runs its own
// layout and configuration inside the same fleet. Fields left zero
// inherit the shared defaults (the -sensors/-seed flags and the paper
// office).
//
// With -churn N the fleet is elastic: N membership events are spread
// across the online day — odd events join a fresh tenant (which starts
// clean in its training phase and streams its own ticks), even events
// drain and remove the oldest joiner. The original offices keep serving
// and scoring throughout.
//
// With -sink the fleet is driven through the asynchronous stream layer
// (stream.Ingestor) and the merged action stream is delivered to the
// named backends: a JSONL log file, a TCP peer (wire frames), a durable
// segment directory (rotating wire-frame files, replayable with
// fadewich-tail), or an in-memory ring. -codec selects the frame payload
// codec of the framed sinks (tcp, seg) and -fsync the segment log's
// durability policy. -queue and -on-full tune the per-office tick
// queue and its backpressure policy; -max-latency bounds how long queued
// ticks may wait before the dispatcher flushes them on its own. -sink
// implies fleet mode even with a single office, as do -office-config and
// -churn.
//
// Usage:
//
//	fadewich-sim [-days N] [-seed S] [-sensors M] [-offices K] [-parallel P]
//	             [-office-config FILE] [-churn N]
//	             [-sink log:PATH|tcp:ADDR|seg:DIR|ring[:N][,...]] [-queue Q]
//	             [-codec 1|2] [-fsync never|rotate|always]
//	             [-on-full block|drop-oldest|error] [-max-latency D] [-v]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"fadewich/internal/agent"
	"fadewich/internal/core"
	"fadewich/internal/engine"
	"fadewich/internal/kma"
	"fadewich/internal/md"
	"fadewich/internal/office"
	"fadewich/internal/prof"
	"fadewich/internal/rf"
	"fadewich/internal/rng"
	"fadewich/internal/segment"
	"fadewich/internal/sim"
	"fadewich/internal/stream"
	"fadewich/internal/wire"
)

func main() {
	days := flag.Int("days", 3, "total days (all but the last train the system)")
	seed := flag.Uint64("seed", 7, "simulation seed")
	sensors := flag.Int("sensors", 9, "sensors to deploy (3..9)")
	offices := flag.Int("offices", 1, "independent office deployments to run as a fleet")
	parallel := flag.Int("parallel", 0, "worker pool width (0 = one per CPU, 1 = sequential)")
	officeConfig := flag.String("office-config", "", "JSON file with per-office overrides (layout, sensors, seed, MD thresholds); implies fleet mode")
	churn := flag.Int("churn", 0, "membership events (add/remove offices) spread across the online day; implies fleet mode")
	sinkSpec := flag.String("sink", "", "action sinks: log:PATH, tcp:ADDR, seg:DIR, ring[:N], comma-separated for fan-out")
	codec := flag.Int("codec", 1, "wire codec of framed sinks (tcp, seg): 1 = JSONL payloads, 2 = compact binary")
	compress := flag.Bool("compress", false, "deflate frame bodies on framed sinks (tcp, seg); decoded output is byte-identical")
	fsync := flag.String("fsync", "rotate", "segment log durability: never, rotate (fsync sealed segments) or always (fsync every frame)")
	queue := flag.Int("queue", 0, "per-office tick queue capacity (0 = default 256)")
	onFull := flag.String("on-full", "block", "backpressure policy when a queue is full: block, drop-oldest or error")
	maxLatency := flag.Duration("max-latency", 0, "dispatch queued ticks at most this long after they arrive, without waiting for a flush (0 = flush-driven; needs -sink)")
	verbose := flag.Bool("v", false, "print every action")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file at exit")
	mutexProfile := flag.String("mutexprofile", "", "write a mutex contention profile to this file at exit")
	flag.Parse()
	stopProf, err := prof.Start(prof.Flags{CPU: *cpuProfile, Mem: *memProfile, Mutex: *mutexProfile})
	if err != nil {
		fmt.Fprintf(os.Stderr, "fadewich-sim: %v\n", err)
		os.Exit(1)
	}
	officesSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "offices" {
			officesSet = true
		}
	})

	switch {
	case *offices < 1:
		err = fmt.Errorf("need at least 1 office, got %d", *offices)
	case *officeConfig != "" && officesSet:
		err = fmt.Errorf("-offices and -office-config conflict: the config file's element count sets the fleet size")
	case *churn < 0:
		err = fmt.Errorf("churn count must be non-negative, got %d", *churn)
	case *codec != 1 && *codec != 2:
		err = fmt.Errorf("unknown wire codec %d (want 1 or 2)", *codec)
	case *offices > 1 || *sinkSpec != "" || *officeConfig != "" || *churn > 0:
		err = runFleet(*days, *seed, *sensors, *offices, *parallel, *officeConfig, *churn,
			sinkOptions{spec: *sinkSpec, codec: wire.Version(*codec), fsync: *fsync, compress: *compress},
			*queue, *onFull, *maxLatency, *verbose)
	default:
		err = run(*days, *seed, *sensors, *parallel, *verbose)
	}
	// Flush profiles before deciding the exit code (os.Exit would skip a
	// deferred flush), and let a profile-write failure surface when the
	// run itself succeeded.
	if perr := stopProf(); perr != nil && err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "fadewich-sim: %v\n", err)
		os.Exit(1)
	}
}

// officeSpec is one office's overrides in the -office-config JSON array.
// Zero fields inherit the shared defaults.
type officeSpec struct {
	// Layout names the floor plan: paper (default), small or wide.
	Layout string `json:"layout"`
	// Sensors is the number of sensors to deploy (0 inherits -sensors).
	Sensors int `json:"sensors"`
	// Seed overrides this office's dataset seed (0 derives one from
	// -seed and the office index).
	Seed uint64 `json:"seed"`
	// MDStdWindowSec overrides the movement detector's rolling std-dev
	// window d in seconds.
	MDStdWindowSec float64 `json:"md_std_window_sec"`
	// MDAlpha overrides the anomaly tail percentage: s_t above the
	// (100-alpha)-th profile percentile is anomalous.
	MDAlpha float64 `json:"md_alpha"`
	// MDTau overrides the profile-update batch rejection threshold.
	MDTau float64 `json:"md_tau"`
}

// layoutByName maps the JSON layout spelling to a floor plan.
func layoutByName(name string) (*office.Layout, error) {
	switch name {
	case "", "paper":
		return office.Paper(), nil
	case "small":
		return office.Small(), nil
	case "wide":
		return office.Wide(), nil
	default:
		return nil, fmt.Errorf("unknown layout %q (want paper, small or wide)", name)
	}
}

// loadOfficeSpecs parses the -office-config JSON array.
func loadOfficeSpecs(path string) ([]officeSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var specs []officeSpec
	if err := json.Unmarshal(data, &specs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("%s: empty office list", path)
	}
	return specs, nil
}

// tenant is one office's full runtime state: its spec, dataset, deployed
// stream subset, resolved System configuration and per-day input draws.
type tenant struct {
	id      int
	spec    officeSpec
	ds      *sim.Dataset
	streams []int
	cfg     core.Config
	// inputs[day][ws] lists input timestamps (nil for churn joiners, which
	// stream ticks but receive no keyboard/mouse feed).
	inputs [][][]float64
	// joinTick is the day-absolute tick a churn joiner entered the fleet.
	joinTick int
}

// buildTenant resolves one office's spec into a generated dataset, its
// deployed stream subset and the office System configuration.
func buildTenant(spec officeSpec, days int, dsSeed, inputSeed uint64, defSensors int, withInputs bool) (*tenant, error) {
	layout, err := layoutByName(spec.Layout)
	if err != nil {
		return nil, err
	}
	if spec.Seed != 0 {
		dsSeed = spec.Seed
	}
	ds, err := sim.Generate(sim.Config{Days: days, Seed: dsSeed, Layout: layout, Workers: 1})
	if err != nil {
		return nil, err
	}
	sensors := spec.Sensors
	if sensors == 0 {
		sensors = defSensors
	}
	if sensors > layout.NumSensors() {
		sensors = layout.NumSensors()
	}
	subsetIdx, err := ds.Layout.SensorSubset(sensors)
	if err != nil {
		return nil, err
	}
	streams := ds.StreamSubset(subsetIdx)
	tn := &tenant{
		spec:    spec,
		ds:      ds,
		streams: streams,
		cfg: core.Config{
			DT:           ds.Days[0].DT,
			Streams:      len(streams),
			Workstations: ds.Layout.NumWorkstations(),
			MD: md.Config{
				StdWindowSec: spec.MDStdWindowSec,
				Alpha:        spec.MDAlpha,
				Tau:          spec.MDTau,
			},
		},
	}
	if withInputs {
		src := rng.New(inputSeed)
		tn.inputs = make([][][]float64, days)
		for day, trace := range ds.Days {
			tn.inputs[day] = kma.GenerateInputs(trace.InputSpans, trace.Events, kma.InputModel{}, src.Split())
		}
	}
	return tn, nil
}

func run(days int, seed uint64, sensors, parallel int, verbose bool) error {
	if days < 2 {
		return fmt.Errorf("need at least 2 days (training + online), got %d", days)
	}
	fmt.Printf("generating %d-day dataset (seed %d)...\n", days, seed)
	ds, err := sim.Generate(sim.Config{Days: days, Seed: seed, Workers: parallel})
	if err != nil {
		return err
	}
	subsetIdx, err := ds.Layout.SensorSubset(sensors)
	if err != nil {
		return err
	}
	streams := ds.StreamSubset(subsetIdx)

	sys, err := core.NewSystem(core.Config{
		DT:           ds.Days[0].DT,
		Streams:      len(streams),
		Workstations: ds.Layout.NumWorkstations(),
	})
	if err != nil {
		return err
	}

	src := rng.New(seed ^ 0xfade)
	inputsPerDay := make([][][]float64, len(ds.Days))
	for day, trace := range ds.Days {
		inputsPerDay[day] = kma.GenerateInputs(trace.InputSpans, trace.Events, kma.InputModel{}, src.Split())
	}

	// Training phase over all but the last day.
	for day := 0; day < days-1; day++ {
		feed(sys, ds.Days[day], streams, inputsPerDay[day], nil)
		fmt.Printf("day %d: %d labelled training samples collected\n", day+1, sys.TrainingSamples())
	}
	if err := sys.FinishTraining(); err != nil {
		return fmt.Errorf("training: %w", err)
	}
	fmt.Printf("classifier trained on %d auto-labelled samples; going online\n\n", sys.TrainingSamples())

	// Online phase on the last day. Times reported day-relative.
	trace := ds.Days[days-1]
	dayBase := sys.Now()
	var deauths []core.Action
	feed(sys, trace, streams, inputsPerDay[days-1], func(a core.Action) {
		a.Time -= dayBase
		if verbose || a.Type == core.ActionDeauthenticate {
			fmt.Printf("  %8.1fs  %-15s w%d", a.Time, a.Type, a.Workstation+1)
			if a.Type == core.ActionDeauthenticate {
				fmt.Printf("  (cause %s)", a.Cause)
			}
			fmt.Println()
		}
		if a.Type == core.ActionDeauthenticate {
			deauths = append(deauths, a)
		}
	})

	// Score online deauthentications against ground-truth departures.
	fmt.Println()
	caught, departures := scoreDay(trace, deauths, verbose, -1)
	fmt.Printf("\nonline day: %d/%d departures deauthenticated within 10 s (%d sensors)\n",
		caught, departures, sensors)
	return nil
}

// feed drives the System through one day of the trace, delivering RSSI
// ticks and input notifications in timestamp order. A seated user who sees
// the screensaver activate reacts by moving the mouse ~1.5 s later, which
// cancels the alert — matching the paper's usability accounting where a
// spurious screensaver costs the user a 3-second cancellation.
func feed(sys *core.System, trace *sim.Trace, streams []int, inputs [][]float64, onAction func(core.Action)) {
	const reactionSec = 1.5
	cursor := make([]int, len(inputs))
	rssi := make([]float64, len(streams))
	reactAt := make([]float64, len(inputs))
	for ws := range reactAt {
		reactAt[ws] = -1
	}
	base := sys.Now()
	for i := 0; i < trace.Ticks; i++ {
		t := base + float64(i+1)*trace.DT
		dayT := float64(i+1) * trace.DT
		for ws := range inputs {
			for cursor[ws] < len(inputs[ws]) && base+inputs[ws][cursor[ws]] <= t {
				sys.NotifyInput(ws)
				cursor[ws]++
			}
			if reactAt[ws] >= 0 && t >= reactAt[ws] {
				sys.NotifyInput(ws)
				reactAt[ws] = -1
			}
		}
		for j, k := range streams {
			rssi[j] = float64(trace.Streams[k][i])
		}
		for _, a := range sys.Tick(rssi) {
			if a.Type == core.ActionScreensaverOn && seatedAt(trace, a.Workstation, dayT) {
				reactAt[a.Workstation] = t + reactionSec
			}
			if onAction != nil {
				onAction(a)
			}
		}
	}
}

// seatedAt reports whether workstation ws's user is seated at
// day-relative time t.
func seatedAt(trace *sim.Trace, ws int, t float64) bool {
	if ws < 0 || ws >= len(trace.Seated) {
		return false
	}
	for _, iv := range trace.Seated[ws] {
		if iv.Contains(t) {
			return true
		}
	}
	return false
}

// scoreDay counts ground-truth departures deauthenticated within 10
// seconds. Deauth times are day-relative. office >= 0 adds a fleet label
// to the per-departure lines (verbose only).
func scoreDay(trace *sim.Trace, deauths []core.Action, verbose bool, office int) (caught, departures int) {
	for _, e := range trace.Events {
		if e.Type != agent.EventDeparture {
			continue
		}
		departures++
		for _, d := range deauths {
			if d.Workstation == e.Workstation && d.Time >= e.Time && d.Time <= e.Time+10 {
				caught++
				if verbose || office < 0 {
					if office >= 0 {
						fmt.Printf("office %3d: ", office)
					}
					fmt.Printf("departure w%d at %7.1fs -> deauthenticated +%.1fs (%s)\n",
						e.Workstation+1, e.Time, d.Time-e.Time, d.Cause)
				}
				break
			}
		}
	}
	return caught, departures
}

// sinkOptions bundle the sink-shaping flags.
type sinkOptions struct {
	spec     string
	codec    wire.Version
	fsync    string
	compress bool
}

// sinkSet is the parsed -sink fan-out, with the individual sinks that
// have end-of-run reporting kept addressable.
type sinkSet struct {
	sink stream.Sink
	ring *stream.RingSink
	seg  *stream.SegmentSink
	tcps []*stream.TCPSink
}

// buildSink parses the -sink flag: a comma-separated list of log:PATH,
// tcp:ADDR, seg:DIR and ring[:N] specs, fanned out through a MultiSink
// when more than one is named. The codec applies to the framed sinks
// (tcp, seg); the fsync policy to the segment log.
func buildSink(opt sinkOptions) (*sinkSet, error) {
	set := &sinkSet{}
	var sinks []stream.Sink
	for _, part := range strings.Split(opt.spec, ",") {
		part = strings.TrimSpace(part)
		switch {
		case strings.HasPrefix(part, "log:"):
			s, err := stream.NewLogSink(strings.TrimPrefix(part, "log:"))
			if err != nil {
				return nil, err
			}
			sinks = append(sinks, s)
		case strings.HasPrefix(part, "tcp:"):
			s, err := stream.NewTCPSink(strings.TrimPrefix(part, "tcp:"))
			if err != nil {
				return nil, err
			}
			s.Version = opt.codec
			s.Compress = opt.compress
			set.tcps = append(set.tcps, s)
			sinks = append(sinks, s)
		case strings.HasPrefix(part, "seg:"):
			policy, err := segment.ParseFsyncPolicy(opt.fsync)
			if err != nil {
				return nil, err
			}
			s, err := stream.NewSegmentSink(segment.Config{
				Dir:      strings.TrimPrefix(part, "seg:"),
				Fsync:    policy,
				Version:  opt.codec,
				Compress: opt.compress,
			})
			if err != nil {
				return nil, err
			}
			set.seg = s
			sinks = append(sinks, s)
		case part == "ring" || strings.HasPrefix(part, "ring:"):
			capacity := 0
			if rest := strings.TrimPrefix(part, "ring"); rest != "" {
				n, err := strconv.Atoi(strings.TrimPrefix(rest, ":"))
				if err != nil || n < 1 {
					return nil, fmt.Errorf("bad ring capacity in %q", part)
				}
				capacity = n
			}
			set.ring = stream.NewRingSink(capacity)
			sinks = append(sinks, set.ring)
		default:
			return nil, fmt.Errorf("unknown sink %q (want log:PATH, tcp:ADDR, seg:DIR or ring[:N])", part)
		}
	}
	if len(sinks) == 1 {
		set.sink = sinks[0]
	} else {
		// Encode-once fan-out: frame-capable members (the segment log)
		// share one encode per (codec, compressed) variant per dispatch.
		set.sink = stream.NewEncodeOnceSink(sinks...)
	}
	return set, nil
}

// runFleet scales the pipeline to a multi-tenant engine.Fleet: per-office
// datasets generate in parallel (heterogeneous when -office-config names
// per-tenant layouts/sensor counts/seeds/thresholds), then the fleet
// trains and serves all offices sharded across the worker pool. With a
// sink spec the fleet is driven through a stream.Ingestor and the merged
// action stream is also delivered to the named backends; with -churn the
// membership changes mid-run.
func runFleet(days int, seed uint64, sensors, offices, parallel int, officeConfig string, churn int, sinkOpt sinkOptions, queue int, onFull string, maxLatency time.Duration, verbose bool) error {
	if days < 2 {
		return fmt.Errorf("need at least 2 days (training + online), got %d", days)
	}
	specs := make([]officeSpec, offices)
	if officeConfig != "" {
		loaded, err := loadOfficeSpecs(officeConfig)
		if err != nil {
			return fmt.Errorf("office config: %w", err)
		}
		specs = loaded
		offices = len(specs)
	}

	pool := engine.NewPool(parallel)
	start := time.Now()
	fmt.Printf("generating %d-day datasets for %d offices (seed %d, %d workers)...\n",
		days, offices, seed, pool.Workers())
	tenants, err := engine.Gather(pool, offices, func(o int) (*tenant, error) {
		// Each office gets its own seed stream; day-level parallelism is
		// already saturated by the office fan-out.
		tn, err := buildTenant(specs[o], days, seed+uint64(o)*0x9e3779b9, (seed+uint64(o))^0xfade, sensors, true)
		if err != nil {
			return nil, fmt.Errorf("office %d: %w", o, err)
		}
		tn.id = o
		return tn, nil
	})
	if err != nil {
		return err
	}
	if officeConfig != "" {
		for _, tn := range tenants {
			layout := tn.spec.Layout
			if layout == "" {
				layout = "paper"
			}
			fmt.Printf("office %3d: layout %-5s  %2d streams  %d workstations\n",
				tn.id, layout, len(tn.streams), tn.ds.Layout.NumWorkstations())
		}
	}

	perOffice := make(map[int]core.Config, offices)
	for _, tn := range tenants {
		perOffice[tn.id] = tn.cfg
	}
	fleet, err := engine.NewFleet(engine.FleetConfig{
		Offices:   offices,
		Workers:   parallel,
		System:    tenants[0].cfg,
		PerOffice: perOffice,
	})
	if err != nil {
		return err
	}

	// Batch delivery: straight to the fleet, or through the asynchronous
	// stream layer when sinks are attached. The ingestor's synchronous
	// OnBatch tap hands each dispatched batch back so the day loop's
	// reaction scheduling and scoring see exactly the stream the sinks do.
	deliver := fleet.Run
	var ing *stream.Ingestor
	var sinks *sinkSet
	if sinkOpt.spec != "" {
		policy, err := stream.ParsePolicy(onFull)
		if err != nil {
			return err
		}
		sinks, err = buildSink(sinkOpt)
		if err != nil {
			return err
		}
		var collected []engine.OfficeAction
		ing, err = stream.NewIngestor(fleet, stream.Config{
			Queue:           queue,
			OnFull:          policy,
			MaxBatchLatency: maxLatency,
			Sink:            sinks.sink,
			OnBatch: func(acts []engine.OfficeAction) {
				collected = append(collected, acts...)
			},
		})
		if err != nil {
			return err
		}
		defer ing.Close()
		deliver = func(batches []engine.OfficeBatch, evs []engine.InputEvent) ([]engine.OfficeAction, error) {
			collected = collected[:0]
			if err := ing.PushOffices(batches, evs); err != nil {
				return nil, err
			}
			if err := ing.Flush(); err != nil {
				return nil, err
			}
			return collected, nil
		}
		effQueue := queue
		if effQueue == 0 {
			effQueue = stream.DefaultQueue
		}
		fmt.Printf("streaming actions to %s (codec %s, queue %d, on-full %s)\n",
			sinkOpt.spec, sinkOpt.codec, effQueue, policy)
	}
	fmt.Printf("datasets ready in %.1fs; training fleet on %d day(s)...\n",
		time.Since(start).Seconds(), days-1)

	totalTicks := 0
	serveStart := time.Now()
	for day := 0; day < days-1; day++ {
		ticks, err := fleetDay(fleet, deliver, tenants, day, nil, nil)
		if err != nil {
			return err
		}
		totalTicks += ticks
	}
	if err := fleet.FinishTraining(); err != nil {
		return fmt.Errorf("training: %w", err)
	}
	fmt.Printf("%d classifiers trained on %d auto-labelled samples total; going online\n\n",
		offices, fleet.TrainingSamples())

	// Elastic membership plan for the online day.
	var plan *churnPlan
	if churn > 0 {
		plan, err = buildChurnPlan(fleet, ing, tenants, churn, seed, sensors)
		if err != nil {
			return err
		}
	}

	// Online phase: the merged, time-ordered fleet stream scores each
	// office against its own ground truth.
	dayBase := make(map[int]float64, offices)
	for _, tn := range tenants {
		dayBase[tn.id] = fleet.System(tn.id).Now()
	}
	deauths := make(map[int][]core.Action, offices)
	online := days - 1
	ticks, err := fleetDay(fleet, deliver, tenants, online, plan, func(a engine.OfficeAction) {
		base, original := dayBase[a.Office]
		if !original {
			return // churn joiner: training-phase actions are not scored
		}
		act := a.Action
		act.Time -= base
		if verbose {
			fmt.Printf("  office %3d  %8.1fs  %-15s w%d\n", a.Office, act.Time, act.Type, act.Workstation+1)
		}
		if act.Type == core.ActionDeauthenticate {
			deauths[a.Office] = append(deauths[a.Office], act)
		}
	})
	if err != nil {
		return err
	}
	totalTicks += ticks

	caught, departures := 0, 0
	for _, tn := range tenants {
		c, d := scoreDay(tn.ds.Days[online], deauths[tn.id], verbose, tn.id)
		caught += c
		departures += d
	}
	elapsed := time.Since(serveStart).Seconds()
	deployment := fmt.Sprintf("%d sensors", sensors)
	if officeConfig != "" {
		deployment = "per-office sensor counts"
	}
	fmt.Printf("\nfleet online day: %d/%d departures deauthenticated within 10 s across %d offices (%s)\n",
		caught, departures, offices, deployment)
	fmt.Printf("fleet throughput: %.0f ticks/sec (%d ticks over %.1fs, %d workers)\n",
		float64(totalTicks)/elapsed, totalTicks, elapsed, pool.Workers())
	if plan != nil {
		fmt.Printf("churn: %d joins, %d removals; fleet ended with %d offices\n",
			plan.joins, plan.removals, fleet.Offices())
	}

	if ing != nil {
		if err := ing.Close(); err != nil {
			return fmt.Errorf("stream: %w", err)
		}
		st := ing.Stats()
		fmt.Printf("sink stream: %d actions in %d batches, %d dropped ticks\n",
			st.Actions, st.Batches, st.Dropped)
		if sinks.ring != nil {
			fmt.Printf("ring sink retains the %d newest actions (%d overwritten)\n",
				sinks.ring.Len(), sinks.ring.Overwritten())
		}
		if sinks.seg != nil {
			sst := sinks.seg.Stats()
			fmt.Printf("segment log: %d frames (%d logical bytes, %d wire bytes) across %d sealed segments, %d fsyncs\n",
				sst.Frames, sst.Bytes, sst.WireBytes, sst.Sealed, sst.Syncs)
		}
		for _, tcp := range sinks.tcps {
			tst := tcp.Stats()
			fmt.Printf("tcp sink: %d frames (%d logical bytes, %d wire bytes) in %d attempts, %d redials (%d dial / %d write failures)\n",
				tst.Frames, tst.Bytes, tst.WireBytes, tst.Attempts, tst.Redials, tst.DialFailures, tst.WriteFailures)
		}
	}
	return nil
}

// churnPlan schedules membership events across the online day: event k
// fires at the first batch boundary past tick (k+1)*maxTicks/(N+1),
// alternating between joining a pre-generated tenant and draining and
// removing the oldest joiner.
type churnPlan struct {
	fleet    *engine.Fleet
	ing      *stream.Ingestor // nil when delivery is synchronous
	events   []int            // event tick positions, ascending
	next     int              // next event index
	joiners  []*tenant        // pre-generated, not yet joined
	active   []*tenant        // joined, in join order
	joins    int
	removals int
}

// buildChurnPlan pre-generates one single-day dataset per join event so
// the online loop never stalls on dataset generation mid-run.
func buildChurnPlan(fleet *engine.Fleet, ing *stream.Ingestor, tenants []*tenant, events int, seed uint64, sensors int) (*churnPlan, error) {
	joins := (events + 1) / 2
	plan := &churnPlan{fleet: fleet, ing: ing}
	for k := 0; k < joins; k++ {
		tn, err := buildTenant(officeSpec{}, 1, seed+0xC0FFEE+uint64(k)*0x9e3779b9, 0, sensors, false)
		if err != nil {
			return nil, fmt.Errorf("churn joiner %d: %w", k, err)
		}
		plan.joiners = append(plan.joiners, tn)
	}
	maxTicks := 0
	for _, tn := range tenants {
		if t := tn.ds.Days[len(tn.ds.Days)-1].Ticks; t > maxTicks {
			maxTicks = t
		}
	}
	for k := 0; k < events; k++ {
		plan.events = append(plan.events, (k+1)*maxTicks/(events+1))
	}
	return plan, nil
}

// apply fires every event scheduled at or before startTick. It returns
// the tenants joined by those events so the day loop can start feeding
// them.
func (p *churnPlan) apply(startTick int) ([]*tenant, error) {
	var joined []*tenant
	for p.next < len(p.events) && p.events[p.next] <= startTick {
		ev := p.next
		p.next++
		if ev%2 == 0 && len(p.joiners) > 0 {
			tn := p.joiners[0]
			p.joiners = p.joiners[1:]
			var id int
			var err error
			if p.ing != nil {
				id, err = p.ing.AddOffice(tn.cfg)
			} else {
				id, err = p.fleet.AddOffice(tn.cfg)
			}
			if err != nil {
				return nil, fmt.Errorf("churn: join: %w", err)
			}
			tn.id = id
			tn.joinTick = startTick
			p.active = append(p.active, tn)
			p.joins++
			joined = append(joined, tn)
			fmt.Printf("churn: +office %d joined at tick %d (%d streams, training)\n", id, startTick, tn.cfg.Streams)
		} else if len(p.active) > 0 {
			tn := p.active[0]
			p.active = p.active[1:]
			var sys *core.System
			var err error
			if p.ing != nil {
				sys, err = p.ing.RemoveOffice(tn.id)
			} else {
				sys, err = p.fleet.RemoveOffice(tn.id)
			}
			if err != nil {
				return nil, fmt.Errorf("churn: remove: %w", err)
			}
			p.removals++
			fmt.Printf("churn: -office %d removed at tick %d (drained; %d training samples collected)\n",
				tn.id, startTick, sys.TrainingSamples())
		}
	}
	return joined, nil
}

// joinerTrace reports whether office id is a churn joiner still active,
// returning its tenant state.
func (p *churnPlan) joinerTrace(id int) (*tenant, bool) {
	if p == nil {
		return nil, false
	}
	for _, tn := range p.active {
		if tn.id == id {
			return tn, true
		}
	}
	return nil, false
}

// sliceBlock fills blk with ticks [lo, hi) of the trace's deployed
// stream subset — the columnar payload of one OfficeBatch. The block is
// reused across batch windows; both delivery paths (Fleet.Run and
// Ingestor.PushOffices) finish reading it before returning.
func sliceBlock(trace *sim.Trace, streams []int, lo, hi int, blk *rf.Block) {
	blk.Reset(hi-lo, len(streams))
	for i := lo; i < hi; i++ {
		row := blk.Row(i - lo)
		for j, k := range streams {
			row[j] = float64(trace.Streams[k][i])
		}
	}
}

// fleetDay drives every tenant through one day in batches, handling input
// delivery, the seated user's ~1.5 s screensaver reaction, and (on the
// online day) the churn plan's membership events. It returns the number
// of ticks delivered fleet-wide.
//
// The batch size must not exceed the reaction delay: a screensaver seen
// in batch b schedules a reaction input that can only be delivered from
// batch b+1 on, and the alert deauthenticates t_ss (3 s) after the
// screensaver. With batchTicks <= reactionTicks the due tick always
// falls inside the next batch, so the reaction lands at its exact tick —
// the same cancellation the single-office feed() performs — instead of
// arriving after the session is already gone.
func fleetDay(fleet *engine.Fleet, deliver func([]engine.OfficeBatch, []engine.InputEvent) ([]engine.OfficeAction, error), tenants []*tenant, day int, plan *churnPlan, onAction func(engine.OfficeAction)) (int, error) {
	dt := tenants[0].ds.Days[day].DT
	reactionTicks := int(math.Ceil(1.5 / dt))
	batchTicks := reactionTicks

	dayBase := make(map[int]float64, len(tenants))
	cursor := make(map[int][]int, len(tenants))
	pending := make(map[int][]engine.InputEvent, len(tenants)) // reactions, Tick day-absolute
	byID := make(map[int]*tenant, len(tenants))
	blocks := make(map[int]*rf.Block, len(tenants)) // per-office columnar payloads, reused per window
	maxTicks := 0
	for _, tn := range tenants {
		byID[tn.id] = tn
		dayBase[tn.id] = fleet.System(tn.id).Now()
		cursor[tn.id] = make([]int, len(tn.inputs[day]))
		if t := tn.ds.Days[day].Ticks; t > maxTicks {
			maxTicks = t
		}
	}
	blockFor := func(id int) *rf.Block {
		b := blocks[id]
		if b == nil {
			b = new(rf.Block)
			blocks[id] = b
		}
		return b
	}
	// Churn joiners streaming this day, keyed by office ID.
	joiners := make(map[int]*tenant)

	total := 0
	for startTick := 0; startTick < maxTicks; startTick += batchTicks {
		if plan != nil {
			newJoiners, err := plan.apply(startTick)
			if err != nil {
				return total, err
			}
			for _, tn := range newJoiners {
				joiners[tn.id] = tn
			}
			for id := range joiners {
				if _, still := plan.joinerTrace(id); !still {
					delete(joiners, id)
				}
			}
		}
		endTick := startTick + batchTicks
		if endTick > maxTicks {
			endTick = maxTicks
		}
		var batches []engine.OfficeBatch
		var evs []engine.InputEvent
		for _, tn := range tenants {
			trace := tn.ds.Days[day]
			end := endTick
			if end > trace.Ticks {
				end = trace.Ticks
			}
			if startTick >= end {
				continue // this office's day is already over
			}
			blk := blockFor(tn.id)
			sliceBlock(trace, tn.streams, startTick, end, blk)
			batches = append(batches, engine.OfficeBatch{Office: tn.id, Block: blk})
			total += end - startTick

			// Scheduled keyboard/mouse inputs falling in this range.
			for ws, times := range tn.inputs[day] {
				for cursor[tn.id][ws] < len(times) && int(times[cursor[tn.id][ws]]/dt) < end {
					tick := int(times[cursor[tn.id][ws]] / dt)
					if tick < startTick {
						tick = startTick
					}
					evs = append(evs, engine.InputEvent{Office: tn.id, Workstation: ws, Tick: tick - startTick})
					cursor[tn.id][ws]++
				}
			}
			// Matured screensaver reactions.
			keep := pending[tn.id][:0]
			for _, ev := range pending[tn.id] {
				if ev.Tick < end {
					tick := ev.Tick
					if tick < startTick {
						tick = startTick
					}
					evs = append(evs, engine.InputEvent{Office: tn.id, Workstation: ev.Workstation, Tick: tick - startTick})
				} else {
					keep = append(keep, ev)
				}
			}
			pending[tn.id] = keep
		}
		// Churn joiners stream their own (single-day) trace, offset to
		// their join tick; they are in the training phase and receive no
		// input feed.
		for id, tn := range joiners {
			trace := tn.ds.Days[0]
			lo, hi := startTick-tn.joinTick, endTick-tn.joinTick
			if lo < 0 {
				lo = 0
			}
			if hi > trace.Ticks {
				hi = trace.Ticks
			}
			if lo >= hi {
				continue
			}
			blk := blockFor(id)
			sliceBlock(trace, tn.streams, lo, hi, blk)
			batches = append(batches, engine.OfficeBatch{Office: id, Block: blk})
			total += hi - lo
		}

		acts, err := deliver(batches, evs)
		if err != nil {
			return total, err
		}
		for _, a := range acts {
			tn := byID[a.Office]
			if tn == nil {
				if onAction != nil {
					onAction(a) // churn joiner action
				}
				continue
			}
			dayT := a.Action.Time - dayBase[a.Office]
			if a.Action.Type == core.ActionScreensaverOn && seatedAt(tn.ds.Days[day], a.Action.Workstation, dayT) {
				// Day-relative tick index of the screensaver action
				// (rounded against float drift), due reactionTicks later —
				// the same tick feed() would deliver the reaction at.
				ssTick := int(dayT/dt+0.5) - 1
				pending[a.Office] = append(pending[a.Office], engine.InputEvent{
					Office:      a.Office,
					Workstation: a.Action.Workstation,
					Tick:        ssTick + reactionTicks,
				})
			}
			if onAction != nil {
				onAction(a)
			}
		}
	}
	return total, nil
}
