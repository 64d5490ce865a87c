package main

import (
	"fmt"
	"runtime"

	"fadewich/internal/core"
	"fadewich/internal/engine"
)

// newFleet builds a fleet of the fixture's offices under IDs 0..n−1,
// the IDs serve.New and the coordinator's gids also assign.
func newFleet(fx *fixture, workers int) (*engine.Fleet, error) {
	perOffice := make(map[int]core.Config, len(fx.resolved))
	for i, ro := range fx.resolved {
		perOffice[i] = ro.Config
	}
	return engine.NewFleet(engine.FleetConfig{
		Offices:   len(fx.resolved),
		System:    fx.resolved[0].Config,
		PerOffice: perOffice,
		Workers:   workers,
	})
}

// trainFleet runs the training day through a fleet in trainChunk-tick
// batches, then takes every office online; collect sees every batch's
// actions.
func trainFleet(fx *fixture, fleet *engine.Fleet, collect func([]engine.OfficeAction)) error {
	n := len(fx.resolved)
	batches := make([]engine.OfficeBatch, 0, n)
	var evs []engine.InputEvent
	for a := 0; a < fx.trainTicks(); a += trainChunk {
		b := min(a+trainChunk, fx.trainTicks())
		batches, evs = batches[:0], evs[:0]
		for i := 0; i < n; i++ {
			set := fx.set(i)
			batches = append(batches, engine.OfficeBatch{Office: i, Ticks: set.rows[0][a:b]})
			for t := a; t < b; t++ {
				for _, ws := range set.inputsAt[0][t] {
					evs = append(evs, engine.InputEvent{Office: i, Workstation: ws, Tick: t - a})
				}
			}
		}
		acts, err := fleet.Run(batches, evs)
		if err != nil {
			return fmt.Errorf("training run: %w", err)
		}
		collect(acts)
	}
	for i := 0; i < n; i++ {
		if err := fleet.FinishTrainingOffice(i); err != nil {
			return fmt.Errorf("train office %d: %w", i, err)
		}
	}
	return nil
}

// servingBatch appends one office's serving steps [from, to) as a fleet
// batch entry and its input events; rows is reused scratch for the
// entry's tick slice headers.
func (fx *fixture) servingBatch(batches []engine.OfficeBatch, evs []engine.InputEvent, rows [][]float64, office, from, to int) ([]engine.OfficeBatch, []engine.InputEvent, [][]float64) {
	rows = rows[:0]
	set := fx.set(office)
	for s := from; s < to; s++ {
		t := fx.serveTick(office, s)
		for _, ws := range set.inputsAt[1][t] {
			evs = append(evs, engine.InputEvent{Office: office, Workstation: ws, Tick: s - from})
		}
		rows = append(rows, set.rows[1][t])
	}
	return append(batches, engine.OfficeBatch{Office: office, Ticks: rows}), evs, rows
}

// reference is the correctness oracle: a synchronous engine.Fleet fed
// each office's whole input sequence — the training day, training, then
// exactly the serving steps the run sent that office — returning every
// office's action sequence. An office's actions depend only on its own
// inputs, never on how they were batched, so the system under test must
// match it office by office whatever its dispatch boundaries were.
func reference(fx *fixture, served []int) ([][]core.Action, error) {
	n := len(fx.resolved)
	fleet, err := newFleet(fx, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, err
	}
	out := make([][]core.Action, n)
	collect := func(acts []engine.OfficeAction) { out = groupByOffice(out, acts) }
	if err := trainFleet(fx, fleet, collect); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	const chunk = 1000
	most := 0
	for _, s := range served {
		most = max(most, s)
	}
	rows := make([][][]float64, n)
	var batches []engine.OfficeBatch
	var evs []engine.InputEvent
	for a := 0; a < most; a += chunk {
		batches, evs = batches[:0], evs[:0]
		for i := 0; i < n; i++ {
			if b := min(a+chunk, served[i]); b > a {
				batches, evs, rows[i] = fx.servingBatch(batches, evs, rows[i], i, a, b)
			}
		}
		acts, err := fleet.Run(batches, evs)
		if err != nil {
			return nil, fmt.Errorf("reference run: %w", err)
		}
		collect(acts)
	}
	return out, nil
}

// compareActions counts the offices whose observed action sequence
// differs from the reference and describes the first difference.
func compareActions(got, want [][]core.Action) (int, string) {
	bad, first := 0, ""
	for i := range want {
		var g []core.Action
		if i < len(got) {
			g = got[i]
		}
		diff := ""
		switch {
		case len(g) != len(want[i]):
			diff = fmt.Sprintf("office %d: %d actions, reference has %d", i, len(g), len(want[i]))
		default:
			for j := range g {
				if g[j] != want[i][j] {
					diff = fmt.Sprintf("office %d action %d: got %+v, reference %+v", i, j, g[j], want[i][j])
					break
				}
			}
		}
		if diff != "" {
			bad++
			if first == "" {
				first = diff
			}
		}
	}
	if len(got) > len(want) {
		bad += len(got) - len(want)
		if first == "" {
			first = fmt.Sprintf("%d actions from unknown offices", len(got)-len(want))
		}
	}
	return bad, first
}

// gateSelfTest proves the gate can fail: it perturbs one observed
// action and expects compareActions to report exactly that office.
func gateSelfTest(got, want [][]core.Action) error {
	for i := range got {
		if len(got[i]) == 0 {
			continue
		}
		mutated := append([][]core.Action(nil), got...)
		mutated[i] = append([]core.Action(nil), got[i]...)
		mutated[i][len(mutated[i])/2].Workstation++
		if bad, _ := compareActions(mutated, want); bad != 1 {
			return fmt.Errorf("gate self-test: one perturbed action in office %d reported %d bad offices, want 1", i, bad)
		}
		return nil
	}
	return fmt.Errorf("gate self-test: the run produced no actions to perturb")
}

// groupByOffice splits an action stream into per-office sequences.
func groupByOffice(dst [][]core.Action, batch []engine.OfficeAction) [][]core.Action {
	for _, a := range batch {
		for a.Office >= len(dst) {
			dst = append(dst, nil)
		}
		dst[a.Office] = append(dst[a.Office], a.Action)
	}
	return dst
}
