package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"fadewich/internal/core"
	"fadewich/internal/engine"
	"fadewich/internal/segment"
	"fadewich/internal/stream"
	"fadewich/internal/wire"
)

// fleet-inproc load shape: one producer pushes inprocSteps ticks of
// every office, then calls Flush — 64 × 40 = 2560 ticks per request.
const inprocSteps = 40

// tapSink is the benchmark's own member of the encode-once fan-out: it
// stamps each batch's arrival at the sinks.
type tapSink struct {
	mu       sync.Mutex
	arrivals []arrival
}

func (t *tapSink) Write(batch []engine.OfficeAction) error {
	now := time.Now()
	t.mu.Lock()
	t.arrivals = append(t.arrivals, arrival{at: now, batch: batch})
	t.mu.Unlock()
	return nil
}

func (t *tapSink) Close() error { return nil }

type inprocSUT struct {
	fleet  *engine.Fleet
	ing    *stream.Ingestor
	seg    *stream.SegmentSink
	tap    *tapSink
	segDir string
}

func (s *inprocSUT) close() error { return s.ing.Close() }

// runFleetInproc: a closed loop through the public stream.Ingestor
// (Push / PushInput / Flush) into the encode-once fan-out of a codec-1
// SegmentSink and a RingSink — no HTTP, no JSON.
func runFleetInproc(cfg runConfig) (*outcome, error) {
	var fx *fixture
	build := 0
	sut, setups, err := buildRepeated(func() (*inprocSUT, setupTimes, error) {
		var st setupTimes
		start := time.Now()
		var err error
		if fx, err = newFixture(cfg.seed); err != nil {
			return nil, st, err
		}
		st.generate = fx.genTime
		build++
		s := &inprocSUT{tap: &tapSink{}, segDir: filepath.Join(cfg.dir, fmt.Sprintf("segments-%d", build))}
		if err := os.MkdirAll(s.segDir, 0o755); err != nil {
			return nil, st, err
		}
		if s.fleet, err = newFleet(fx, 0); err != nil {
			return nil, st, err
		}
		if s.seg, err = stream.NewSegmentSink(segment.Config{Dir: s.segDir, Version: wire.V1JSONL}); err != nil {
			return nil, st, err
		}
		s.ing, err = stream.NewIngestor(s.fleet, stream.Config{
			Queue: queueCap,
			Sink:  stream.NewEncodeOnceSink(s.seg, stream.NewRingSink(4096), s.tap),
		})
		if err != nil {
			s.seg.Close()
			return nil, st, err
		}
		feedStart := time.Now()
		if err := feedTraining(fx, s.ing, allOffices(), s.ing.Flush); err != nil {
			s.close()
			return nil, st, err
		}
		trainStart := time.Now()
		st.trainFeed = trainStart.Sub(feedStart)
		for i := 0; i < numOffices; i++ {
			if err := s.fleet.FinishTrainingOffice(i); err != nil {
				s.close()
				return nil, st, fmt.Errorf("train office %d: %w", i, err)
			}
		}
		st.train = time.Since(trainStart)
		st.total = time.Since(start)
		return s, st, nil
	}, func(s *inprocSUT) { s.close() })
	if err != nil {
		return nil, err
	}

	out := &outcome{fx: fx, setup: setups, outputs: map[string][][]core.Action{}, layer: map[string]float64{}, segmentLog: true}
	all := allOffices()
	var starts []time.Time
	begin := time.Now()
	waitWindow := out.measureWindow(begin, cfg.seconds)
	for k := 0; time.Now().Before(out.win.end); k++ {
		out.requests = append(out.requests, request{offices: all, from: k * inprocSteps, to: (k + 1) * inprocSteps})
		out.attempted++
		t0 := time.Now()
		var err error
		for s := k * inprocSteps; s < (k+1)*inprocSteps && err == nil; s++ {
			for _, i := range all {
				if err = fx.pushSteps(sut.ing, i, s, s+1); err != nil {
					break
				}
			}
		}
		t1 := time.Now()
		if err == nil {
			err = sut.ing.Flush()
		}
		t2 := time.Now()
		starts = append(starts, t0)
		out.spans = append(out.spans, span{t0, t2, numOffices * inprocSteps})
		if err != nil {
			out.fail("request %d: %v", k, err)
			break
		}
		if out.win.contains(t0) {
			out.reqLatency = append(out.reqLatency, sample{t1, t2.Sub(t1)})
		}
	}
	waitWindow()

	out.served = make([]int, numOffices)
	for i := range out.served {
		out.served[i] = len(starts) * inprocSteps
	}
	ist := sut.ing.Stats()
	out.layer["stream.dropped"] = float64(ist.Dropped)
	if ist.Dropped != 0 {
		out.fail("ingestor dropped %d ticks", ist.Dropped)
	}
	if got, want := ist.Totals().Dispatched, uint64(numOffices*(len(starts)*inprocSteps+fx.trainTicks())); got != want {
		out.fail("ingestor dispatched %d ticks, the load sent %d", got, want)
	}
	if err := sut.close(); err != nil {
		out.fail("ingestor close: %v", err)
	}
	segStats := sut.seg.Stats()

	var tapped [][]core.Action
	for _, a := range sut.tap.arrivals {
		tapped = groupByOffice(tapped, a.batch)
		for _, act := range a.batch {
			step := fx.servingStep(act.Action)
			if step < 0 {
				continue
			}
			if k := step / inprocSteps; k < len(starts) && out.win.contains(starts[k]) {
				out.actLatency = append(out.actLatency, sample{starts[k], a.at.Sub(starts[k])})
			}
		}
	}
	out.outputs["sink-fanout"] = tapped
	logged, err := readSegments(sut.segDir)
	if err != nil {
		out.fail("replay segment log: %v", err)
	}
	out.outputs["segment-log"] = groupByOffice(nil, logged)
	out.layer["segment.frames"] = float64(segStats.Frames)
	out.layer["segment.wire_bytes"] = float64(segStats.WireBytes)
	out.layer["segment.actions"] = float64(len(logged))
	return out, nil
}
