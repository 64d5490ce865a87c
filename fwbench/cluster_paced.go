package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"fadewich/internal/cluster"
	"fadewich/internal/core"
	"fadewich/internal/engine"
	"fadewich/internal/serve"
	"fadewich/internal/wire"
)

// cluster-paced load shape: an epoch of epochSteps ticks per office
// (2 s of sensor data, 640 ticks in all) is due every epochPeriod,
// whatever the cluster's state — 12.8k ticks/s offered, about a third
// of the two workers' capacity, and enough work per epoch that its
// latency stands well above scheduler wake-up jitter.
const (
	epochSteps  = 10
	epochPeriod = 50 * time.Millisecond
)

var clusterWorkers = []string{"w1", "w2"}

type clusterWorker struct {
	name    string
	srv     *serve.Server
	host    *httpHost
	offices []int // fixture office indices (== gids) this worker owns
	ids     []int // the worker's local office IDs, parallel to offices
}

type clusterSUT struct {
	workers    []*clusterWorker
	router     *cluster.Router
	routerDone chan struct{}
	routerErr  error
	client     *http.Client

	mu       sync.Mutex
	arrivals []arrival
	epoch    uint64 // last epoch flushed to every worker
}

// close drains the workers (each sends its final tagged frame), which
// completes the router.
func (s *clusterSUT) close() error {
	for _, w := range s.workers {
		w.srv.Close()
		w.host.close()
	}
	s.client.CloseIdleConnections()
	select {
	case <-s.routerDone:
		return s.routerErr
	case <-time.After(30 * time.Second):
		s.router.Close()
		<-s.routerDone
		return errors.New("router did not complete after every worker drained")
	}
}

func (s *clusterSUT) onBatch(epoch uint64, batch []engine.OfficeAction) error {
	now := time.Now()
	cp := append([]engine.OfficeAction(nil), batch...)
	s.mu.Lock()
	s.arrivals = append(s.arrivals, arrival{at: now, epoch: epoch, batch: cp})
	s.mu.Unlock()
	return nil
}

// flushEpoch posts each worker its body for the next epoch, one
// connection per worker, and returns when both acknowledged.
func (s *clusterSUT) flushEpoch(bodies [][]byte, ticks, inputs []int) (acked []time.Time, err error) {
	s.epoch++
	acked = make([]time.Time, len(s.workers))
	errs := make([]error, len(s.workers))
	var wg sync.WaitGroup
	for j, w := range s.workers {
		wg.Add(1)
		go func(j int, w *clusterWorker) {
			defer wg.Done()
			url := w.host.base + "/v1/ticks?flush=1&epoch=" + strconv.FormatUint(s.epoch, 10)
			errs[j] = postTicks(s.client, url, bodies[j], ticks[j], inputs[j])
			acked[j] = time.Now()
		}(j, w)
	}
	wg.Wait()
	return acked, errors.Join(errs...)
}

// runClusterPaced: an open loop of epoch-stamped ?flush=1&epoch=K
// POSTs to two in-process worker serve.Servers fed their
// cluster.Coordinator shards, forwarding compressed, epoch-tagged
// frames to an in-process cluster.Router.
func runClusterPaced(cfg runConfig) (*outcome, error) {
	var fx *fixture
	build := 0
	sut, setups, err := buildRepeated(func() (*clusterSUT, setupTimes, error) {
		var st setupTimes
		start := time.Now()
		var err error
		if fx, err = newFixture(cfg.seed); err != nil {
			return nil, st, err
		}
		st.generate = fx.genTime
		build++
		s, err := startCluster(fx, filepath.Join(cfg.dir, fmt.Sprintf("fleet-%d.json", build)))
		if err != nil {
			return nil, st, err
		}
		feedStart := time.Now()
		bodies := make([][]byte, len(s.workers))
		zero := make([]int, len(s.workers))
		for a := 0; a < fx.trainTicks(); a += trainChunk {
			b := min(a+trainChunk, fx.trainTicks())
			for _, w := range s.workers {
				for j, id := range w.ids {
					if err := fx.pushTraining(w.srv.Ingestor(), w.offices[j], id, a, b); err != nil {
						s.close()
						return nil, st, fmt.Errorf("%s training push: %w", w.name, err)
					}
				}
			}
			// Empty bodies: the epoch flush dispatches what was pushed.
			if _, err := s.flushEpoch(bodies, zero, zero); err != nil {
				s.close()
				return nil, st, fmt.Errorf("training epoch %d: %w", s.epoch, err)
			}
		}
		trainStart := time.Now()
		st.trainFeed = trainStart.Sub(feedStart)
		for _, w := range s.workers {
			if err := trainOverHTTP(s.client, w.host.base, len(w.offices)); err != nil {
				s.close()
				return nil, st, fmt.Errorf("%s: %w", w.name, err)
			}
		}
		st.train = time.Since(trainStart)
		st.total = time.Since(start)
		return s, st, nil
	}, func(s *clusterSUT) { s.close() })
	if err != nil {
		return nil, err
	}

	out := &outcome{fx: fx, setup: setups, outputs: map[string][][]core.Action{}, layer: map[string]float64{}, viaHTTP: true, compressed: true, paced: true}
	firstEpoch := sut.epoch + 1
	var dues, lastAcks []time.Time
	pendingMax := 0
	nw := len(sut.workers)
	bodies := make([][]byte, nw)
	ticks, inputs := make([]int, nw), make([]int, nw)
	begin := time.Now()
	waitWindow := out.measureWindow(begin, cfg.seconds)
	for k := 0; ; k++ {
		due := begin.Add(time.Duration(k) * epochPeriod)
		if !due.Before(out.win.end) {
			break
		}
		for j, w := range sut.workers {
			bodies[j], ticks[j], inputs[j] = bodies[j][:0], 0, 0
			for s := k * epochSteps; s < (k+1)*epochSteps; s++ {
				for _, i := range w.offices {
					var t, in int
					bodies[j], t, in = fx.appendLines(bodies[j], i, s, s+1)
					ticks[j] += t
					inputs[j] += in
				}
			}
			out.requests = append(out.requests, request{offices: w.offices, from: k * epochSteps, to: (k + 1) * epochSteps})
		}
		out.attempted++
		sleepUntil(due)
		sent := time.Now()
		acked, err := sut.flushEpoch(bodies, ticks, inputs)
		last := acked[0]
		for _, a := range acked[1:] {
			if a.After(last) {
				last = a
			}
		}
		dues = append(dues, due)
		lastAcks = append(lastAcks, last)
		out.spans = append(out.spans, span{due, last, numOffices * epochSteps})
		if err != nil {
			out.fail("epoch %d: %v", sut.epoch, err)
			break
		}
		if out.win.contains(due) {
			out.reqLatency = append(out.reqLatency, sample{due, last.Sub(due)})
			out.lateness = append(out.lateness, sent.Sub(due))
		}
		pendingMax = max(pendingMax, sut.router.Stats().PendingEpochs)
	}
	waitWindow()

	out.served = make([]int, numOffices)
	for i := range out.served {
		out.served[i] = len(dues) * epochSteps
	}
	var fwdWire, dropped uint64
	var dispatched uint64
	for _, w := range sut.workers {
		ist := w.srv.Ingestor().Stats()
		dropped += ist.Dropped
		dispatched += ist.Totals().Dispatched
	}
	if dropped != 0 {
		out.fail("worker ingestors dropped %d ticks", dropped)
	}
	if want := uint64(numOffices * (len(dues)*epochSteps + fx.trainTicks())); dispatched != want {
		out.fail("workers dispatched %d ticks, the load sent %d", dispatched, want)
	}
	if err := sut.close(); err != nil {
		out.fail("router: %v", err)
	}
	for _, w := range sut.workers {
		fwdWire += w.srv.Forwarder().Stats().WireBytes
	}
	rst := sut.router.Stats()
	if rst.Duplicates != 0 || rst.SourcesFinal != nw {
		out.fail("router saw %d duplicate frames and %d of %d final frames", rst.Duplicates, rst.SourcesFinal, nw)
	}

	var routed [][]core.Action
	var mergeDelays []float64
	for _, a := range sut.arrivals {
		routed = groupByOffice(routed, a.batch)
		if a.epoch < firstEpoch {
			continue
		}
		k := int(a.epoch - firstEpoch)
		if k >= len(dues) || !out.win.contains(dues[k]) {
			continue
		}
		mergeDelays = append(mergeDelays, float64(a.at.Sub(lastAcks[k]).Microseconds()))
		for range a.batch {
			out.actLatency = append(out.actLatency, sample{dues[k], a.at.Sub(dues[k])})
		}
	}
	out.outputs["router"] = routed
	out.layer["stream.dropped"] = float64(dropped)
	out.layer["cluster.merge_delay_us"] = quantile(mergeDelays, 0.5)
	out.layer["cluster.pending_epochs_max"] = float64(pendingMax)
	if rst.Actions > 0 {
		out.layer["forward.wire_bytes_per_action"] = float64(fwdWire) / float64(rst.Actions)
	}
	return out, nil
}

// startCluster brings up the coordinator, the router and one
// serve.Server per worker, each fed its coordinator shard.
func startCluster(fx *fixture, specPath string) (*clusterSUT, error) {
	if err := os.WriteFile(specPath, fx.specRaw, 0o644); err != nil {
		return nil, err
	}
	coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{SpecPath: specPath, Workers: clusterWorkers})
	if err != nil {
		return nil, err
	}
	s := &clusterSUT{client: newClient(), routerDone: make(chan struct{})}
	if s.router, err = cluster.NewRouter(cluster.RouterConfig{Expect: len(clusterWorkers), OnBatch: s.onBatch}); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go func() {
		defer close(s.routerDone)
		s.routerErr = s.router.Serve(ln)
	}()
	byName := make(map[string]int, len(fx.names))
	for i, n := range fx.names {
		byName[n] = i
	}
	as := coord.Assignments()
	for _, name := range clusterWorkers {
		shard, err := coord.Shard(name)
		if err != nil {
			s.close()
			return nil, err
		}
		raw := []byte(shard.Spec)
		srv, err := serve.New(serve.Config{
			SpecSource:    func() ([]byte, error) { return raw, nil },
			AllowEmpty:    true,
			Queue:         queueCap,
			Workers:       1,
			Codec:         wire.V1JSONL,
			Compress:      true,
			Forward:       ln.Addr().String(),
			ForwardSource: shard.Source,
		})
		if err != nil {
			s.close()
			return nil, err
		}
		host, err := hostHTTP(srv)
		if err != nil {
			srv.Close()
			s.close()
			return nil, err
		}
		w := &clusterWorker{name: name, srv: srv, host: host}
		s.workers = append(s.workers, w)
		for _, o := range as.Offices {
			if o.Worker != name {
				continue
			}
			i := byName[o.Name]
			if o.GID != i {
				s.close()
				return nil, fmt.Errorf("office %s has gid %d, want its spec index %d", o.Name, o.GID, i)
			}
			id, ok := srv.Reconciler().IDOf(o.Name)
			if !ok {
				s.close()
				return nil, fmt.Errorf("worker %s does not host its office %s", name, o.Name)
			}
			w.offices = append(w.offices, i)
			w.ids = append(w.ids, id)
		}
	}
	return s, nil
}
