package main

import (
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"fadewich/internal/kma"
	"fadewich/internal/office"
	"fadewich/internal/rng"
	"fadewich/internal/serve"
	"fadewich/internal/sim"
	"fadewich/internal/stream"
)

// Deployment shape: the paper office with all nine sensors (72 RSSI
// streams at 5 Hz). The seed derives `datasets` simulated deployments,
// and office i runs deployment i mod datasets. Day 0 of a deployment trains
// its offices; the serving sequence is days 1..serveDays back to back,
// which each office starts at its own offset and replays cyclically for
// as long as the run lasts. Each deployment's radio links are fixed for
// all its days, and they set how much detector and classifier work a
// tick costs, so several deployments keep that cost from hanging on
// one draw of the links.
const (
	numOffices  = 64
	numSensors  = 9
	daySeconds  = 1200
	serveDays   = 1
	datasets    = 4
	minTraining = 3
	trainChunk  = 500 // training ticks per office per ingest flush
)

// dataset is one simulated deployment; index 0 of each array is the
// training day, index 1 the serving sequence.
type dataset struct {
	rows     [2][][]float64 // rows[i][tick] is one 72-stream sample
	inputsAt [2][][]int     // inputsAt[i][tick]: workstations with input due before that tick
	rssiTail [2][][]byte    // `","rssi":[...]}` + "\n" per tick
}

// fixture is everything a run derives from its seed: the simulated
// deployments, pre-rendered tick lines and the fleet spec.
type fixture struct {
	dt       float64
	sets     []*dataset
	names    []string
	offset   []int // serving-sequence start tick of each office (the stagger)
	specRaw  []byte
	resolved []serve.ResolvedOffice
	genTime  time.Duration
}

// set is the deployment an office runs.
func (fx *fixture) set(office int) *dataset { return fx.sets[office%len(fx.sets)] }

func (fx *fixture) trainTicks() int { return len(fx.sets[0].rows[0]) }
func (fx *fixture) serveTicks() int { return len(fx.sets[0].rows[1]) }

// serveTick maps an office's serving step to its serving-sequence tick.
func (fx *fixture) serveTick(office, step int) int {
	return (fx.offset[office] + step) % fx.serveTicks()
}

// splitmix is a stateless 64-bit mixer for per-office derived values.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// newDataset simulates one deployment.
func newDataset(seed uint64) (*dataset, float64, error) {
	cfg := sim.Config{Days: 1 + serveDays, Seed: seed, Layout: office.Paper(), Workers: 2}
	cfg.Agent.DaySeconds = daySeconds
	cfg.Agent.MorningJitterSec = 90
	cfg.Agent.DeparturesPerDay = 6
	cfg.Agent.OutsideMeanSec = 120
	ds, err := sim.Generate(cfg)
	if err != nil {
		return nil, 0, fmt.Errorf("generate dataset: %w", err)
	}
	subset, err := ds.Layout.SensorSubset(numSensors)
	if err != nil {
		return nil, 0, fmt.Errorf("sensor subset: %w", err)
	}
	streams := ds.StreamSubset(subset)
	set := &dataset{}
	src := rng.New(seed ^ 0xfade)
	for day, tr := range ds.Days {
		inputs := kma.GenerateInputs(tr.InputSpans, tr.Events, kma.InputModel{}, src.Split())
		cur := make([]int, len(inputs))
		ph := min(day, 1)
		backing := make([]float64, tr.Ticks*len(streams))
		for t := 0; t < tr.Ticks; t++ {
			// Inputs due by the end of this tick are delivered before it,
			// workstation by workstation, as the simulators' replay does.
			due := float64(t+1) * tr.DT
			var wss []int
			for ws := range inputs {
				for cur[ws] < len(inputs[ws]) && inputs[ws][cur[ws]] <= due {
					wss = append(wss, ws)
					cur[ws]++
				}
			}
			row := backing[t*len(streams) : (t+1)*len(streams)]
			tail := []byte(`","rssi":[`)
			for j, k := range streams {
				row[j] = float64(tr.Streams[k][t])
				if j > 0 {
					tail = append(tail, ',')
				}
				tail = strconv.AppendFloat(tail, row[j], 'g', -1, 64)
			}
			set.rows[ph] = append(set.rows[ph], row)
			set.inputsAt[ph] = append(set.inputsAt[ph], wss)
			set.rssiTail[ph] = append(set.rssiTail[ph], append(tail, "]}\n"...))
		}
	}
	return set, ds.Days[0].DT, nil
}

// newFixture generates the deployments and fleet spec for a seed.
func newFixture(seed uint64) (*fixture, error) {
	start := time.Now()
	fx := &fixture{}
	for d := uint64(0); d < datasets; d++ {
		set, dt, err := newDataset(seed*datasets + d)
		if err != nil {
			return nil, err
		}
		if d > 0 && (len(set.rows[0]) != fx.trainTicks() || len(set.rows[1]) != fx.serveTicks()) {
			return nil, fmt.Errorf("deployment %d has different day lengths", d)
		}
		fx.dt = dt
		fx.sets = append(fx.sets, set)
	}
	fx.genTime = time.Since(start)

	fx.names = make([]string, numOffices)
	fx.offset = make([]int, numOffices)
	offices := make([]serve.OfficeSpec, numOffices)
	for i := range offices {
		fx.names[i] = fmt.Sprintf("o%02d", i)
		fx.offset[i] = int(splitmix(seed*numOffices+uint64(i)) % uint64(fx.serveTicks()))
		offices[i] = serve.OfficeSpec{Name: fx.names[i]}
	}
	spec := serve.Spec{
		Defaults: serve.OfficeSpec{
			Layout:             "paper",
			Sensors:            numSensors,
			DT:                 fx.dt,
			MinTrainingSamples: minTraining,
		},
		Offices: offices,
	}
	var err error
	if fx.specRaw, err = json.Marshal(spec); err != nil {
		return nil, fmt.Errorf("marshal spec: %w", err)
	}
	parsed, err := serve.ParseSpec(fx.specRaw)
	if err != nil {
		return nil, err
	}
	if fx.resolved, err = parsed.Resolve(); err != nil {
		return nil, err
	}
	if got, want := fx.resolved[0].Config.Streams, len(fx.sets[0].rows[0][0]); got != want {
		return nil, fmt.Errorf("spec resolves to %d streams, the dataset has %d", got, want)
	}
	return fx, nil
}

// appendLines renders one office's serving steps [from, to) as POST
// /v1/ticks JSONL: each tick's due input lines, then its RSSI line.
func (fx *fixture) appendLines(dst []byte, office, from, to int) (out []byte, ticks, inputs int) {
	name, set := fx.names[office], fx.set(office)
	for s := from; s < to; s++ {
		t := fx.serveTick(office, s)
		for _, ws := range set.inputsAt[1][t] {
			dst = append(dst, `{"office":"`...)
			dst = append(dst, name...)
			dst = append(dst, `","input":`...)
			dst = strconv.AppendInt(dst, int64(ws), 10)
			dst = append(dst, "}\n"...)
			inputs++
		}
		dst = append(dst, `{"office":"`...)
		dst = append(dst, name...)
		dst = append(dst, set.rssiTail[1][t]...)
		ticks++
	}
	return dst, ticks, inputs
}

// pushSteps pushes one office's serving steps [from, to) into an
// ingestor whose office IDs are the fixture's, inputs before their tick.
func (fx *fixture) pushSteps(ing *stream.Ingestor, office, from, to int) error {
	set := fx.set(office)
	for s := from; s < to; s++ {
		t := fx.serveTick(office, s)
		for _, ws := range set.inputsAt[1][t] {
			if err := ing.PushInput(office, ws); err != nil {
				return err
			}
		}
		if err := ing.Push(office, set.rows[1][t]); err != nil {
			return err
		}
	}
	return nil
}

// pushTraining pushes one office's training-day ticks [from, to) into
// an ingestor under its office ID id.
func (fx *fixture) pushTraining(ing *stream.Ingestor, office, id, from, to int) error {
	set := fx.set(office)
	for t := from; t < to; t++ {
		for _, ws := range set.inputsAt[0][t] {
			if err := ing.PushInput(id, ws); err != nil {
				return err
			}
		}
		if err := ing.Push(id, set.rows[0][t]); err != nil {
			return err
		}
	}
	return nil
}
