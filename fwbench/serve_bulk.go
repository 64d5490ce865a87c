package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"fadewich/internal/core"
	"fadewich/internal/engine"
	"fadewich/internal/segment"
	"fadewich/internal/serve"
	"fadewich/internal/stream"
	"fadewich/internal/wire"
)

// serve-bulk load shape: two connections (one per CPU), each owning
// half the offices, each request carrying bulkSteps ticks of every
// office it owns — 32 × 40 = 1280 RSSI lines, about 8 s of sensor data.
const (
	bulkConns = 2
	bulkSteps = 40
	queueCap  = 4096
)

// ingestResult mirrors the POST /v1/ticks response.
type ingestResult struct {
	AcceptedTicks  int    `json:"accepted_ticks"`
	AcceptedInputs int    `json:"accepted_inputs"`
	Flushed        bool   `json:"flushed"`
	Error          string `json:"error"`
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		Proxy:               nil,
		MaxIdleConnsPerHost: bulkConns,
		DisableCompression:  true,
	}}
}

// postTicks POSTs one JSONL body and checks it was accepted whole.
func postTicks(c *http.Client, url string, body []byte, ticks, inputs int) error {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	var res ingestResult
	if err := json.Unmarshal(raw, &res); err != nil {
		return fmt.Errorf("response %q: %w", raw, err)
	}
	if resp.StatusCode != http.StatusOK || res.AcceptedTicks != ticks || res.AcceptedInputs != inputs || !res.Flushed {
		return fmt.Errorf("status %d, %+v; want %d ticks, %d inputs, flushed", resp.StatusCode, res, ticks, inputs)
	}
	return nil
}

// arrival is one batch of actions as received by an output, with its
// receive time.
type arrival struct {
	at    time.Time
	epoch uint64
	batch []engine.OfficeAction
}

// subscription is a live GET /v1/actions?codec=1 stream.
type subscription struct {
	done     chan struct{}
	arrivals []arrival
	err      error
}

func subscribe(c *http.Client, base string) (*subscription, error) {
	resp, err := c.Get(base + "/v1/actions?codec=1")
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("GET /v1/actions = %d", resp.StatusCode)
	}
	s := &subscription{done: make(chan struct{})}
	go func() {
		defer close(s.done)
		dec := wire.NewDecoder(resp.Body)
		for {
			batch, err := dec.Decode()
			if err == io.EOF {
				return
			}
			if err != nil {
				s.err = err
				return
			}
			s.arrivals = append(s.arrivals, arrival{at: time.Now(), batch: batch})
		}
	}()
	return s, nil
}

// httpHost serves a handler on a loopback listener.
type httpHost struct {
	hs   *http.Server
	base string
	done chan struct{}
}

func hostHTTP(h http.Handler) (*httpHost, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hh := &httpHost{hs: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(hh.done)
		hh.hs.Serve(ln)
	}()
	return hh, nil
}

func (hh *httpHost) close() {
	hh.hs.Close()
	<-hh.done
}

// trainResult mirrors the POST /v1/train response.
type trainResult struct {
	Trained []string `json:"trained"`
	Online  int      `json:"online"`
	Errors  []string `json:"errors"`
}

// trainOverHTTP calls POST /v1/train and checks every office came
// online.
func trainOverHTTP(c *http.Client, base string, offices int) error {
	resp, err := c.Post(base+"/v1/train", "application/json", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var tr trainResult
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		return fmt.Errorf("decode /v1/train: %w", err)
	}
	if resp.StatusCode != http.StatusOK || tr.Online != offices {
		return fmt.Errorf("/v1/train = %d %+v, want %d offices online", resp.StatusCode, tr, offices)
	}
	return nil
}

// feedTraining pushes the training day of the given offices into an
// ingestor whose office IDs are the fixture's, flushing every
// trainChunk ticks.
func feedTraining(fx *fixture, ing *stream.Ingestor, ids []int, flush func() error) error {
	for a := 0; a < fx.trainTicks(); a += trainChunk {
		b := min(a+trainChunk, fx.trainTicks())
		for _, id := range ids {
			if err := fx.pushTraining(ing, id, id, a, b); err != nil {
				return fmt.Errorf("training push: %w", err)
			}
		}
		if err := flush(); err != nil {
			return fmt.Errorf("training flush: %w", err)
		}
	}
	return nil
}

// scrapeMetric reads one sample from a /metrics exposition.
func scrapeMetric(c *http.Client, base, name string) (float64, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			return strconv.ParseFloat(strings.TrimSpace(rest), 64)
		}
	}
	return 0, fmt.Errorf("metric %s not exposed", name)
}

// readSegments replays a sealed segment directory.
func readSegments(dir string) ([]engine.OfficeAction, error) {
	r, err := segment.OpenDir(dir, segment.Options{})
	if err != nil {
		return nil, err
	}
	defer r.Close()
	var all []engine.OfficeAction
	for {
		batch, err := r.Next()
		if err == io.EOF {
			return all, nil
		}
		if err != nil {
			return nil, err
		}
		all = append(all, batch...)
	}
}

// servingStep maps an action's office-clock time back to the serving
// step whose tick emitted it (negative for training-day actions).
func (fx *fixture) servingStep(a core.Action) int {
	return int(math.Round(a.Time/fx.dt)) - fx.trainTicks() - 1
}

type bulkSUT struct {
	srv    *serve.Server
	host   *httpHost
	client *http.Client
	sub    *subscription
	segDir string
}

func (s *bulkSUT) close() {
	s.srv.Close()
	<-s.sub.done
	s.host.close()
	s.client.CloseIdleConnections()
}

// runServeBulk: a closed loop of large ?flush=1 JSONL POSTs to an
// in-process serve.Server over loopback HTTP, with a /v1/actions
// subscriber and a codec-1 segment log attached.
func runServeBulk(cfg runConfig) (*outcome, error) {
	var fx *fixture
	build := 0
	sut, setups, err := buildRepeated(func() (*bulkSUT, setupTimes, error) {
		var st setupTimes
		start := time.Now()
		var err error
		if fx, err = newFixture(cfg.seed); err != nil {
			return nil, st, err
		}
		st.generate = fx.genTime
		build++
		segDir := filepath.Join(cfg.dir, fmt.Sprintf("segments-%d", build))
		if err := os.MkdirAll(segDir, 0o755); err != nil {
			return nil, st, err
		}
		spec := fx.specRaw
		srv, err := serve.New(serve.Config{
			SpecSource: func() ([]byte, error) { return spec, nil },
			Queue:      queueCap,
			SegmentDir: segDir,
			Codec:      wire.V1JSONL,
		})
		if err != nil {
			return nil, st, err
		}
		host, err := hostHTTP(srv)
		if err != nil {
			srv.Close()
			return nil, st, err
		}
		s := &bulkSUT{srv: srv, host: host, client: newClient(), segDir: segDir}
		if s.sub, err = subscribe(s.client, host.base); err != nil {
			srv.Close()
			host.close()
			return nil, st, err
		}
		feedStart := time.Now()
		if err := feedTraining(fx, srv.Ingestor(), allOffices(), srv.Ingestor().Flush); err != nil {
			s.close()
			return nil, st, err
		}
		trainStart := time.Now()
		st.trainFeed = trainStart.Sub(feedStart)
		if err := trainOverHTTP(s.client, host.base, numOffices); err != nil {
			s.close()
			return nil, st, err
		}
		st.train = time.Since(trainStart)
		st.total = time.Since(start)
		return s, st, nil
	}, (*bulkSUT).close)
	if err != nil {
		return nil, err
	}

	out := &outcome{fx: fx, setup: setups, outputs: map[string][][]core.Action{}, layer: map[string]float64{}, viaHTTP: true, segmentLog: true}
	owned := make([][]int, bulkConns)
	for i := 0; i < numOffices; i++ {
		owned[i%bulkConns] = append(owned[i%bulkConns], i)
	}
	url := sut.host.base + "/v1/ticks?flush=1"
	starts := make([][]time.Time, bulkConns)
	spans := make([][]span, bulkConns)
	var mu sync.Mutex
	var wg sync.WaitGroup
	begin := time.Now()
	waitWindow := out.measureWindow(begin, cfg.seconds)
	for c := 0; c < bulkConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var body []byte
			for k := 0; time.Now().Before(out.win.end); k++ {
				body = body[:0]
				ticks, inputs := 0, 0
				for s := k * bulkSteps; s < (k+1)*bulkSteps; s++ {
					for _, i := range owned[c] {
						var t, in int
						body, t, in = fx.appendLines(body, i, s, s+1)
						ticks += t
						inputs += in
					}
				}
				mu.Lock()
				out.requests = append(out.requests, request{offices: owned[c], from: k * bulkSteps, to: (k + 1) * bulkSteps})
				out.attempted++
				mu.Unlock()
				t0 := time.Now()
				err := postTicks(sut.client, url, body, ticks, inputs)
				t1 := time.Now()
				starts[c] = append(starts[c], t0)
				spans[c] = append(spans[c], span{t0, t1, ticks})
				mu.Lock()
				if err != nil {
					out.fail("conn %d request %d: %v", c, k, err)
				} else if out.win.contains(t0) {
					out.reqLatency = append(out.reqLatency, sample{t0, t1.Sub(t0)})
				}
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	waitWindow()

	out.served = make([]int, numOffices)
	for c := range owned {
		out.spans = append(out.spans, spans[c]...)
		for _, i := range owned[c] {
			out.served[i] = len(starts[c]) * bulkSteps
		}
	}
	if overflows, err := scrapeMetric(sut.client, sut.host.base, "fadewich_actions_overflows_total"); err != nil {
		out.fail("scrape overflows: %v", err)
	} else if overflows != 0 {
		out.fail("%v /v1/actions subscribers dropped for overflow", overflows)
	}
	ist := sut.srv.Ingestor().Stats()
	out.layer["stream.dropped"] = float64(ist.Dropped)
	if ist.Dropped != 0 {
		out.fail("ingestor dropped %d ticks", ist.Dropped)
	}
	sent := 0
	for _, s := range out.served {
		sent += s
	}
	if got, want := ist.Totals().Dispatched, uint64(sent+numOffices*fx.trainTicks()); got != want {
		out.fail("ingestor dispatched %d ticks, the load sent %d", got, want)
	}
	sut.close()
	if sut.sub.err != nil {
		out.fail("/v1/actions stream: %v", sut.sub.err)
	}
	segStats := sut.srv.Segment().Stats()

	var live [][]core.Action
	for _, a := range sut.sub.arrivals {
		live = groupByOffice(live, a.batch)
		for _, act := range a.batch {
			step := fx.servingStep(act.Action)
			if step < 0 {
				continue
			}
			c, k := act.Office%bulkConns, step/bulkSteps
			if k < len(starts[c]) && out.win.contains(starts[c][k]) {
				out.actLatency = append(out.actLatency, sample{starts[c][k], a.at.Sub(starts[c][k])})
			}
		}
	}
	out.outputs["actions-stream"] = live
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

func allOffices() []int {
	ids := make([]int, numOffices)
	for i := range ids {
		ids[i] = i
	}
	return ids
}
