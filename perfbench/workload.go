package main

import (
	"fmt"
	"math/rand"

	"sctuple/internal/comm"
	"sctuple/internal/parmd"
	"sctuple/internal/potential"
	"sctuple/internal/workload"
)

// The benchmark system: 1536-atom β-cristobalite (4×4×4 conventional
// cells) thermalized at 300 K, integrated NVE at 0.5 fs on two
// in-process ranks with one force worker each — the fine-grain regime
// (768 atoms per rank) where the paper's Fig. 8 puts SC ahead.
const (
	unitCells = 4
	tempK     = 300
	dtFs      = 0.5
	ranks     = 2
	workers   = 1
)

// workloadSpec is one benchmark workload and its provenance. Every
// workload runs the same system; they differ in the tuple-search
// scheme and the transport, which decides the layers a step exercises.
type workloadSpec struct {
	Name    string       `json:"name"`
	Scheme  parmd.Scheme `json:"-"`
	Network string       `json:"network"` // "" = in-process channels; "unix" = socket fabric
	// RepSteps is the length of one timed repetition: long enough that
	// per-repetition start-up is a small share, short enough that a run
	// holds several repetitions.
	RepSteps int    `json:"rep_steps"`
	Why      string `json:"why"`
	Stresses string `json:"stresses"`
	Bypasses string `json:"bypasses"`
}

var workloads = []workloadSpec{
	{
		Name: "sc-silica", Scheme: parmd.SchemeSC, RepSteps: 25,
		Why:      "the paper's algorithm: SC-MD octant import and collapsed triplet search on the 5.5 Å pair lattice",
		Stresses: "tuple (SC enumeration, <1% of candidates become tuples), kernel/potential",
		Bypasses: "nlist; comm is small (octant halo)",
	},
	{
		Name: "hybrid-silica", Scheme: parmd.SchemeHybrid, RepSteps: 75,
		Why:      "control for SC-search changes: pair-list search, kernel evaluation and full-shell halo traffic dominate",
		Stresses: "nlist/pair search, kernel/potential, comm (full-shell halo, ~7x SC's bytes)",
		Bypasses: "tuple SC enumerator",
	},
	{
		Name: "hybrid-silica-unix", Scheme: parmd.SchemeHybrid, Network: "unix", RepSteps: 75,
		Why:      "hybrid-silica over the socket fabric: framed wire protocol and real socket syscalls isolate transport cost",
		Stresses: "comm socket transport (frames, peer links, syscalls)",
		Bypasses: "tuple SC enumerator; in-process channel transport",
	},
}

func findWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

// newSystem generates the workload input from the seed: the lattice is
// fixed, the seed draws the Maxwell-Boltzmann velocities.
func newSystem(seed int64) (*workload.Config, *potential.Model, comm.Cart) {
	model := potential.NewSilicaModel()
	cfg := workload.BetaCristobalite(unitCells, unitCells, unitCells)
	cfg.Thermalize(rand.New(rand.NewSource(seed)), model, tempK)
	return cfg, model, comm.NewCart(ranks)
}
