package parmd

import (
	"fmt"
	"testing"
	"time"

	"sctuple/internal/comm"
	"sctuple/internal/geom"
	"sctuple/internal/md"
	"sctuple/internal/obs"
	"sctuple/internal/obs/flight"
	"sctuple/internal/obs/serve"
)

// TestStepLoopZeroAllocs: after warm-up, the complete parallel step —
// integration, migration, canonical owned-segment sort check, span
// rebin, halo exchange, force evaluation, force write-back — allocates
// nothing for any scheme, with the phase recorder disabled and
// enabled (its ring buffers are preallocated). The workload is the
// migration-free shifted crystal of the golden fixtures, so the
// measured steps are the steady state every long solid-state run sits
// in.
func TestStepLoopZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	cfg, model := silicaConfig(t, 4, 300, 22)
	for i := range cfg.Pos {
		cfg.Pos[i] = cfg.Box.Wrap(cfg.Pos[i].Add(geom.V(0.8, 0.8, 0.8)))
	}
	cart, _ := comm.NewCartDims(geom.IV(2, 1, 1))
	masses := make([]float64, len(model.Species))
	for i, s := range model.Species {
		masses[i] = s.Mass
	}
	const dt = 0.5
	for _, withRec := range []bool{false, true} {
		for _, scheme := range Schemes() {
			dec, err := NewDecomp(cfg.Box, model.MaxCutoff(), cart)
			if err != nil {
				t.Fatal(err)
			}
			var recorder *obs.Recorder
			if withRec {
				recorder = obs.NewRecorder(cart.Size(), 4096)
			}
			world := comm.NewWorld(cart.Size())
			defineTagClasses(world)
			err = world.Run(func(p *comm.Proc) error {
				r, err := newRankState(p, dec, model, scheme, 1, true)
				if err != nil {
					return err
				}
				r.rec = recorder.Rank(p.Rank())
				r.adopt(cfg)
				if _, err := r.computeForces(); err != nil {
					return err
				}
				step := func() error {
					half := 0.5 * dt * md.ForceToAccel
					for i := 0; i < r.nOwned; i++ {
						r.vel[i] = r.vel[i].Add(r.force[i].Scale(half / masses[r.species[i]]))
					}
					for i := 0; i < r.nOwned; i++ {
						r.gpos[i] = r.gpos[i].Add(r.vel[i].Scale(dt))
					}
					if err := r.migrate(); err != nil {
						return err
					}
					if _, err := r.computeForces(); err != nil {
						return err
					}
					for i := 0; i < r.nOwned; i++ {
						r.vel[i] = r.vel[i].Add(r.force[i].Scale(half / masses[r.species[i]]))
					}
					return nil
				}
				var stepErr error
				run := func() {
					if err := step(); err != nil && stepErr == nil {
						stepErr = err
					}
				}
				// Warm up until every pooled buffer and scratch array on
				// every route has reached its working capacity.
				for k := 0; k < 30; k++ {
					run()
				}
				p.Barrier()
				if p.Rank() != 0 {
					for k := 0; k < 11; k++ {
						run()
					}
					p.Barrier()
					return stepErr
				}
				allocs := testing.AllocsPerRun(10, run)
				p.Barrier()
				if stepErr != nil {
					return stepErr
				}
				if allocs != 0 {
					return fmt.Errorf("%v recorder=%v: %g allocs per step, want 0", scheme, withRec, allocs)
				}
				return nil
			})
			if err != nil {
				t.Error(err)
			}
		}
	}
}

// TestStepTelemetryZeroAllocs: the step loop's telemetry tail — the
// rank observer deriving the step's delta, folding it into the
// registry (counters, step-time histogram, rank 0's imbalance gauge),
// and building full records into the flight recorder (the writer is
// active: a sink is attached, but no file and no /steps subscriber,
// so nothing is JSON-encoded) — stays allocation-free on top of the
// zero-alloc step. This is the exact configuration of an scmd run
// with -serve and nobody watching.
func TestStepTelemetryZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	cfg, model := silicaConfig(t, 4, 300, 22)
	for i := range cfg.Pos {
		cfg.Pos[i] = cfg.Box.Wrap(cfg.Pos[i].Add(geom.V(0.8, 0.8, 0.8)))
	}
	cart, _ := comm.NewCartDims(geom.IV(2, 1, 1))
	masses := make([]float64, len(model.Species))
	for i, s := range model.Species {
		masses[i] = s.Mass
	}
	const dt = 0.5
	dec, err := NewDecomp(cfg.Box, model.MaxCutoff(), cart)
	if err != nil {
		t.Fatal(err)
	}
	recorder := obs.NewRecorder(cart.Size(), 4096)
	reg := obs.NewRegistry()
	tee := obs.NewStepTee()
	sw := obs.NewStepWriterTee(nil, tee)
	fl := flight.New(flight.Config{Ranks: cart.Size(), Registry: reg, Tee: tee})
	sw.SetSink(fl)
	// The server only holds references; attaching it must not change
	// the step loop's allocation behavior.
	_ = &serve.Server{Registry: reg, Recorder: recorder, Steps: tee, Flight: fl}
	opt := Options{Recorder: recorder, StepLog: sw, Metrics: reg}

	world := comm.NewWorld(cart.Size())
	defineTagClasses(world)
	err = world.Run(func(p *comm.Proc) error {
		r, err := newRankState(p, dec, model, SchemeSC, 1, true)
		if err != nil {
			return err
		}
		r.rec = recorder.Rank(p.Rank())
		r.adopt(cfg)
		if _, err := r.computeForces(); err != nil {
			return err
		}
		ob := newObserver(opt, r, p, time.Now())
		ob.observe()
		stepN := 0
		step := func() error {
			start := time.Now()
			half := 0.5 * dt * md.ForceToAccel
			for i := 0; i < r.nOwned; i++ {
				r.vel[i] = r.vel[i].Add(r.force[i].Scale(half / masses[r.species[i]]))
			}
			for i := 0; i < r.nOwned; i++ {
				r.gpos[i] = r.gpos[i].Add(r.vel[i].Scale(dt))
			}
			if err := r.migrate(); err != nil {
				return err
			}
			if _, err := r.computeForces(); err != nil {
				return err
			}
			for i := 0; i < r.nOwned; i++ {
				r.vel[i] = r.vel[i].Add(r.force[i].Scale(half / masses[r.species[i]]))
			}
			if !sw.Active() {
				return fmt.Errorf("step writer inactive despite the flight sink")
			}
			ob.step(stepN, start)
			stepN++
			return nil
		}
		var stepErr error
		run := func() {
			if err := step(); err != nil && stepErr == nil {
				stepErr = err
			}
		}
		for k := 0; k < 30; k++ {
			run()
		}
		p.Barrier()
		if p.Rank() != 0 {
			for k := 0; k < 11; k++ {
				run()
			}
			p.Barrier()
			return stepErr
		}
		allocs := testing.AllocsPerRun(10, run)
		p.Barrier()
		if stepErr != nil {
			return stepErr
		}
		if allocs != 0 {
			return fmt.Errorf("telemetry step tail: %g allocs per step, want 0", allocs)
		}
		return nil
	})
	if err != nil {
		t.Error(err)
	}
}
