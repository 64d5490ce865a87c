package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"fadewich/internal/core"
	"fadewich/internal/engine"
	"fadewich/internal/md"
	"fadewich/internal/re"
	"fadewich/internal/segment"
	"fadewich/internal/serve"
	"fadewich/internal/stream"
	"fadewich/internal/wire"
)

// The traced run replays the untraced run's exact request sequence
// against a stack of identically trained replicas, one per layer, each
// entered through its public API with Workers: 1:
//
//	L1 serve.Server.ServeHTTP   (in-process, no socket; HTTP workloads)
//	L2 stream.Ingestor Push/PushInput/Flush
//	L3 engine.Fleet.Run
//	L4 core.System.Tick per office
//	L5 md.Detector.Push per office
//
// plus the fan-out work on every dispatched batch: EncodedBatch.Frame
// (wire) and SegmentSink.WriteEncoded (segment). Each request is run
// through all replicas back to back, so a layer's self time — its
// inclusive time minus the next layer's on the identical input — is
// paired per request, and the self times add back up to the traced
// request total by construction.

// layerNames orders the ledger printed on standard error.
var layerNames = []string{"serve", "stream", "engine", "core", "md", "wire", "segment"}

// reqSpans is one replayed request's inclusive times per layer.
type reqSpans struct {
	l1, push, flush, l3, l3par, l4, l5, encode, segWrite time.Duration
	lines, ticks, actions, frameBytes                    int
	allocsL1, allocsL2                                   uint64
}

// total is the request's traced total: the top layer plus the fan-out.
func (r reqSpans) total(http bool) time.Duration {
	top := r.push + r.flush
	if http {
		top = r.l1
	}
	return top + r.encode + r.segWrite
}

// self splits the total into the layers' self times.
func (r reqSpans) self(http bool) map[string]time.Duration {
	l2 := r.push + r.flush
	m := map[string]time.Duration{
		"stream":  l2 - r.l3,
		"engine":  r.l3 - r.l4,
		"core":    r.l4 - r.l5,
		"md":      r.l5,
		"wire":    r.encode,
		"segment": r.segWrite,
	}
	if http {
		m["serve"] = r.l1 - l2
	}
	return m
}

// replicas is the layer stack the trace replays into.
type replicas struct {
	fx       *fixture
	http     bool
	srv      *serve.Server
	fleet2   *engine.Fleet
	ing      *stream.Ingestor
	fleet3   *engine.Fleet
	fleetP   *engine.Fleet
	systems  []*core.System
	dets     []*md.Detector
	seg      *stream.SegmentSink // nil when the workload writes no segment log
	compress bool

	mu      sync.Mutex
	batches [][]engine.OfficeAction // L2 dispatches, taken by the replay
}

func (r *replicas) close() {
	if r.srv != nil {
		r.srv.Close()
	}
	r.ing.Close()
	if r.seg != nil {
		r.seg.Close()
	}
}

// buildReplicas trains every replica on the training day, concurrently.
func buildReplicas(out *outcome, dir string) (*replicas, error) {
	fx := out.fx
	r := &replicas{fx: fx, http: out.viaHTTP, compress: out.compressed}
	var err error
	if r.fleet2, err = newFleet(fx, 1); err != nil {
		return nil, err
	}
	if r.ing, err = stream.NewIngestor(r.fleet2, stream.Config{Queue: queueCap, OnBatch: func(b []engine.OfficeAction) {
		r.mu.Lock()
		r.batches = append(r.batches, b)
		r.mu.Unlock()
	}}); err != nil {
		return nil, err
	}
	if out.segmentLog {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		if r.seg, err = stream.NewSegmentSink(segment.Config{Dir: dir, Version: wire.V1JSONL}); err != nil {
			return nil, err
		}
	}
	if r.http {
		spec := fx.specRaw
		if r.srv, err = serve.New(serve.Config{SpecSource: func() ([]byte, error) { return spec, nil }, Queue: queueCap, Workers: 1}); err != nil {
			return nil, err
		}
	}
	if r.fleet3, err = newFleet(fx, 1); err != nil {
		return nil, err
	}
	if r.fleetP, err = newFleet(fx, runtime.GOMAXPROCS(0)); err != nil {
		return nil, err
	}
	for _, ro := range fx.resolved {
		sys, err := core.NewSystem(ro.Config)
		if err != nil {
			return nil, err
		}
		det, err := md.NewDetector(ro.Config.MD, ro.Config.Streams, ro.Config.DT)
		if err != nil {
			return nil, err
		}
		r.systems = append(r.systems, sys)
		r.dets = append(r.dets, det)
	}

	drop := func([]engine.OfficeAction) {}
	jobs := []func() error{
		func() error { return trainFleet(fx, r.fleet3, drop) },
		func() error { return trainFleet(fx, r.fleetP, drop) },
		func() error {
			if err := feedTraining(fx, r.ing, allOffices(), r.ing.Flush); err != nil {
				return err
			}
			for i := range fx.resolved {
				if err := r.fleet2.FinishTrainingOffice(i); err != nil {
					return err
				}
			}
			return nil
		},
		func() error {
			for i, sys := range r.systems {
				set := fx.set(i)
				for t, row := range set.rows[0] {
					for _, ws := range set.inputsAt[0][t] {
						sys.NotifyInput(ws)
					}
					sys.Tick(row)
				}
				if err := sys.FinishTraining(); err != nil {
					return fmt.Errorf("system %d: %w", i, err)
				}
			}
			return nil
		},
		func() error {
			for i, det := range r.dets {
				for _, row := range fx.set(i).rows[0] {
					det.Push(row)
				}
			}
			return nil
		},
	}
	if r.http {
		jobs = append(jobs, func() error {
			if err := feedTraining(fx, r.srv.Ingestor(), allOffices(), r.srv.Ingestor().Flush); err != nil {
				return err
			}
			rec := httptest.NewRecorder()
			r.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/train", nil))
			if rec.Code != http.StatusOK {
				return fmt.Errorf("replica /v1/train = %d: %s", rec.Code, rec.Body)
			}
			return nil
		})
	}
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i, job := range jobs {
		wg.Add(1)
		go func(i int, job func() error) {
			defer wg.Done()
			errs[i] = job()
		}(i, job)
	}
	wg.Wait()
	r.batches = nil // training dispatches carry no replayed request
	for _, err := range errs {
		if err != nil {
			r.close()
			return nil, fmt.Errorf("train replica: %w", err)
		}
	}
	return r, nil
}

// mallocs reads the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// mdWindowStart is an office-step where the detector turned anomalous.
type mdWindowStart struct{ office, step int }

// replayState carries the detector observations across requests.
type replayState struct {
	refitUs  []float64
	refits   int
	starts   []mdWindowStart
	wasAnom  []bool
	clockOff time.Duration // cost of one time.Now/time.Since pair
}

// clockCost measures one time.Now/time.Since pair, which every
// individually timed md.Detector.Push carries.
func clockCost() time.Duration {
	const n = 100000
	start := time.Now()
	var sink time.Duration
	for i := 0; i < n; i++ {
		sink += time.Since(time.Now())
	}
	_ = sink
	return time.Since(start) / n
}

// replay runs one request through every replica and returns its spans.
// Odd requests visit the layers in reverse order, so the cache warmth
// the shared dataset rows gain from one replica's pass does not always
// favour the same layer.
func (r *replicas) replay(req request, body []byte, st *replayState, reverse bool) (reqSpans, error) {
	fx := r.fx
	sp := reqSpans{ticks: req.ticks()}
	var batches []engine.OfficeBatch
	var evs []engine.InputEvent
	for _, i := range req.offices {
		batches, evs, _ = fx.servingBatch(batches, evs, nil, i, req.from, req.to)
	}
	fleetActions := 0

	steps := []func() error{
		func() error { // L1: serve.Server.ServeHTTP
			if !r.http {
				return nil
			}
			hreq := httptest.NewRequest(http.MethodPost, "/v1/ticks?flush=1", bytes.NewReader(body))
			hreq.Header.Set("Content-Type", "application/json")
			rec := httptest.NewRecorder()
			m0 := mallocs()
			t0 := time.Now()
			r.srv.ServeHTTP(rec, hreq)
			sp.l1 = time.Since(t0)
			sp.allocsL1 = mallocs() - m0
			var res ingestResult
			if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil || rec.Code != http.StatusOK || res.AcceptedTicks != sp.ticks {
				return fmt.Errorf("replica ServeHTTP = %d %s", rec.Code, rec.Body)
			}
			sp.lines = res.AcceptedTicks + res.AcceptedInputs
			return nil
		},
		func() error { // L2: stream.Ingestor, then the fan-out of its dispatches
			m0 := mallocs()
			t0 := time.Now()
			for s := req.from; s < req.to; s++ {
				for _, i := range req.offices {
					if err := fx.pushSteps(r.ing, i, s, s+1); err != nil {
						return err
					}
				}
			}
			t1 := time.Now()
			if err := r.ing.Flush(); err != nil {
				return err
			}
			sp.flush = time.Since(t1)
			sp.push = t1.Sub(t0)
			sp.allocsL2 = mallocs() - m0
			r.mu.Lock()
			dispatched := r.batches
			r.batches = nil
			r.mu.Unlock()
			for _, b := range dispatched {
				eb := stream.NewEncodedBatch(b)
				t := time.Now()
				f, err := eb.Frame(wire.V1JSONL, r.compress)
				sp.encode += time.Since(t)
				if err != nil {
					return err
				}
				sp.frameBytes += len(f.Wire)
				sp.actions += len(b)
				if r.seg != nil {
					t := time.Now()
					err := r.seg.WriteEncoded(eb)
					sp.segWrite += time.Since(t)
					if err != nil {
						return err
					}
				}
			}
			return nil
		},
		func() error { // L3: engine.Fleet.Run, one worker
			t := time.Now()
			acts, err := r.fleet3.Run(batches, evs)
			sp.l3 = time.Since(t)
			fleetActions = len(acts)
			return err
		},
		func() error { // L3 again with a worker per CPU, for the speed-up
			t := time.Now()
			_, err := r.fleetP.Run(batches, evs)
			sp.l3par = time.Since(t)
			return err
		},
		func() error { // L4: core.System.Tick per office
			t := time.Now()
			for _, i := range req.offices {
				sys, set := r.systems[i], fx.set(i)
				for s := req.from; s < req.to; s++ {
					tk := fx.serveTick(i, s)
					for _, ws := range set.inputsAt[1][tk] {
						sys.NotifyInput(ws)
					}
					sys.Tick(set.rows[1][tk])
				}
			}
			sp.l4 = time.Since(t)
			return nil
		},
		func() error { // L5: md.Detector.Push per office, each timed
			for _, i := range req.offices {
				det, set := r.dets[i], fx.set(i)
				for s := req.from; s < req.to; s++ {
					row := set.rows[1][fx.serveTick(i, s)]
					th := det.Threshold()
					t := time.Now()
					state, _ := det.Push(row)
					d := time.Since(t) - st.clockOff
					sp.l5 += d
					if det.Threshold() != th {
						st.refits++
						st.refitUs = append(st.refitUs, float64(d)/float64(time.Microsecond))
					}
					anom := state == md.StateAnomalous
					if anom && !st.wasAnom[i] {
						st.starts = append(st.starts, mdWindowStart{i, s})
					}
					st.wasAnom[i] = anom
				}
			}
			return nil
		},
	}
	for k := range steps {
		if reverse {
			k = len(steps) - 1 - k
		}
		if err := steps[k](); err != nil {
			return sp, err
		}
	}
	if fleetActions != sp.actions {
		return sp, fmt.Errorf("replica fleet emitted %d actions, replica ingestor %d", fleetActions, sp.actions)
	}
	return sp, nil
}

// measureRE times signature extraction and classification on windows
// where the replayed detectors turned anomalous, with the classifier
// office 0's System trained.
func measureRE(fx *fixture, sys *core.System, starts []mdWindowStart) (extractUs, predictUs float64, err error) {
	cfg := fx.resolved[0].Config
	feat := cfg.Feat
	if feat.TDeltaSec == 0 {
		feat = re.DefaultFeatureConfig()
	}
	clf, err := re.Train(sys.Samples(), cfg.SVM)
	if err != nil {
		return 0, 0, fmt.Errorf("train classifier: %w", err)
	}
	n := feat.WindowTicks(fx.dt)
	const most = 256
	if len(starts) > most {
		starts = starts[:most]
	}
	var ex, pr []float64
	window := make([][]float64, cfg.Streams)
	for _, ws := range starts {
		for k := range window {
			window[k] = window[k][:0]
			for s := ws.step; s < ws.step+n; s++ {
				window[k] = append(window[k], fx.set(ws.office).rows[1][fx.serveTick(ws.office, s)][k])
			}
		}
		t := time.Now()
		f := re.ExtractWindow(window, fx.dt, feat)
		t1 := time.Now()
		clf.Predict(f)
		t2 := time.Now()
		ex = append(ex, float64(t1.Sub(t))/float64(time.Microsecond))
		pr = append(pr, float64(t2.Sub(t1))/float64(time.Microsecond))
	}
	return quantile(ex, 0.5), quantile(pr, 0.5), nil
}

// traceRun builds the replicas, replays the run's requests until the
// budget is spent, checks the ledger adds up and returns the per-layer
// metrics.
func traceRun(out *outcome, dir string, budget time.Duration) (map[string]metric, error) {
	fx := out.fx
	buildStart := time.Now()
	r, err := buildReplicas(out, dir)
	if err != nil {
		return nil, err
	}
	defer r.close()
	diag("trace: replicas trained in %.1fs", time.Since(buildStart).Seconds())

	var spans []reqSpans
	var body []byte
	st := &replayState{wasAnom: make([]bool, numOffices), clockOff: clockCost()}
	deadline := time.Now().Add(budget)
	for _, req := range out.requests {
		if time.Now().After(deadline) {
			break
		}
		if r.http {
			body = body[:0]
			for s := req.from; s < req.to; s++ {
				for _, i := range req.offices {
					body, _, _ = fx.appendLines(body, i, s, s+1)
				}
			}
		}
		sp, err := r.replay(req, body, st, len(spans)%2 == 1)
		if err != nil {
			return nil, fmt.Errorf("replay request %d: %w", len(spans), err)
		}
		spans = append(spans, sp)
	}
	if len(spans) == 0 {
		return nil, fmt.Errorf("no request replayed")
	}

	// The ledger: per-layer self totals against the per-request totals.
	var total, l2, l3, l3par time.Duration
	var lines, ticks, actions, frameBytes, batches int
	var allocs1, allocs2 uint64
	self := map[string]time.Duration{}
	flushSelf := time.Duration(0)
	for _, sp := range spans {
		total += sp.total(r.http)
		for k, v := range sp.self(r.http) {
			self[k] += v
		}
		l2 += sp.push + sp.flush
		l3 += sp.l3
		l3par += sp.l3par
		flushSelf += sp.flush - sp.l3
		lines += sp.lines
		ticks += sp.ticks
		actions += sp.actions
		frameBytes += sp.frameBytes
		allocs1 += sp.allocsL1
		allocs2 += sp.allocsL2
		if sp.actions > 0 {
			batches++
		}
	}
	var sum time.Duration
	for _, v := range self {
		sum += v
	}
	diag("trace: replayed %d of %d requests, %d ticks, %d actions; traced total %.3fs", len(spans), len(out.requests), ticks, actions, total.Seconds())
	for _, name := range layerNames {
		v := self[name]
		diag("trace:   %-8s self %9.3f ms  %6.2f%%  %8.3f us/tick", name, float64(v)/1e6, 100*float64(v)/float64(total), float64(v)/1e3/float64(ticks))
	}
	if d := sum - total; d < -time.Microsecond || d > time.Microsecond {
		return nil, fmt.Errorf("layer self times add up to %v, the traced requests total %v", sum, total)
	}

	extractUs, predictUs, err := measureRE(fx, r.systems[0], st.starts)
	if err != nil {
		return nil, err
	}

	per := func(v float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return v / float64(n)
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	untracedTicks := ticksIn(out.spans, out.win)
	untracedCPU := float64((out.after.cpu - out.before.cpu).Microseconds()) / untracedTicks
	var gen, feed, train []float64
	for _, s := range out.setup {
		gen = append(gen, s.generate.Seconds())
		feed = append(feed, s.trainFeed.Seconds())
		train = append(train, s.train.Seconds()*1000/numOffices)
	}
	layer := func(name string) float64 { return out.layer[name] }
	segBytesPerAction := 0.0
	if n := layer("segment.actions"); n > 0 {
		segBytesPerAction = layer("segment.wire_bytes") / n
	}
	m := map[string]metric{
		"serve.decode_us_per_line":      {per(us(self["serve"]), lines), "us"},
		"serve.allocs_per_line":         {per(float64(allocs1)-float64(allocs2), lines), "count"},
		"stream.push_ns_per_tick":       {per(float64(sumPush(spans)), ticks), "ns"},
		"stream.flush_self_us":          {per(us(flushSelf), len(spans)), "us"},
		"stream.dropped":                {layer("stream.dropped"), "count"},
		"engine.run_us_per_tick":        {per(us(l3), ticks), "us"},
		"engine.merge_ns_per_action":    {per(float64(self["engine"]), actions), "ns"},
		"engine.parallel_speedup":       {float64(l3) / float64(l3par), "ratio"},
		"core.tick_self_us":             {per(us(self["core"]), ticks), "us"},
		"md.push_us_per_tick":           {per(us(self["md"]), ticks), "us"},
		"md.refits_per_ktick":           {per(1000*float64(st.refits), ticks), "count"},
		"md.refit_us_p50":               {quantile(st.refitUs, 0.5), "us"},
		"re.extract_us":                 {extractUs, "us"},
		"re.predict_us":                 {predictUs, "us"},
		"wire.encode_ns_per_action":     {per(float64(self["wire"]), actions), "ns"},
		"wire.bytes_per_action":         {per(float64(frameBytes), actions), "bytes"},
		"segment.write_us_per_batch":    {per(us(self["segment"]), batches), "us"},
		"segment.wire_bytes_per_action": {segBytesPerAction, "bytes"},
		"cluster.merge_delay_us":        {layer("cluster.merge_delay_us"), "us"},
		"cluster.pending_epochs_max":    {layer("cluster.pending_epochs_max"), "count"},
		"forward.wire_bytes_per_action": {layer("forward.wire_bytes_per_action"), "bytes"},
		"sim.generate_s":                {quantile(gen, 0.5), "s"},
		"svm.train_ms_per_office":       {quantile(train, 0.5), "ms"},
		"setup.train_feed_s":            {quantile(feed, 0.5), "s"},
		"proc.allocs_per_tick":          {float64(out.after.mallocs-out.before.mallocs) / untracedTicks, "count"},
		"proc.gc_cpu_fraction":          {(out.after.gcCPU - out.before.gcCPU) / (out.after.cpu - out.before.cpu).Seconds(), "ratio"},
		"trace.overhead_pct":            {100 * (per(us(total), ticks)/untracedCPU - 1), "%"},
	}
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if math.IsNaN(m[k].Value) || math.IsInf(m[k].Value, 0) {
			return nil, fmt.Errorf("layer metric %s is %v", k, m[k].Value)
		}
		diag("trace: %-30s %12.4f %s", k, m[k].Value, m[k].Unit)
	}
	return m, nil
}

func sumPush(spans []reqSpans) time.Duration {
	var d time.Duration
	for _, sp := range spans {
		d += sp.push
	}
	return d
}
