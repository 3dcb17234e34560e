package main

import (
	"math/rand"

	"cbma/internal/geom"
	"cbma/internal/sim"
)

// Seed-derivation labels of the benchmark's inputs, in sim.DeriveSeed's
// label space. They sit clear of the labels the program itself uses
// (internal/sim 1–11, internal/core 200s, internal/paperbench 301).
const (
	labelGrid uint64 = 901 + iota
	labelPowerControl
	labelPlacement
	labelDense
	labelServe
	labelShard
)

// warmSeed seeds every warm-up input. Warm-up belongs to set-up, and a
// fixed input keeps set-up time from depending on the run seed (a 10-tag
// SIC warm-up's decode work varies with its draws).
const warmSeed = 0

// A campaign workload's timed phase is a sequence of calls; call i runs
// variant i of the workload's point set: the same grid, its random draws
// (seeds, placements) derived from the run seed and i. A run thus
// averages over many realizations instead of repeating one, which keeps
// its figures steady from seed to seed.

// paperSweepPoints is variant i of the paper-reproduction campaign: the
// Fig. 9(c) power-control points (5 tags on random table-top placements,
// tags boot in random impedance states, Algorithm 1 on) and the Fig. 8(a)
// distance × {2,3,4}-tag grid (31-chip Gold codes). The power-control
// points come first: their adjustment loop is serial, so they are the
// longest and are dispatched before the grid fills the other worker.
func paperSweepPoints(seed int64, i int) []sim.Scenario {
	base := sim.DefaultScenario()
	base.Packets = 12
	base.PayloadBytes = 8
	var points []sim.Scenario
	rng := rand.New(rand.NewSource(sim.DeriveSeed(seed, labelPlacement, uint64(i))))
	for g := 0; g < 4; g++ {
		scn := base
		scn.NumTags = 5
		scn.Deployment = geom.NewDeployment(0.5)
		scn.Deployment.Room = geom.Room{Width: 2.4, Height: 1.6}
		if err := scn.Deployment.PlaceTagsRandom(rng, scn.NumTags, geom.Wavelength(scn.Channel.CarrierHz)/2); err != nil {
			panic(err) // five tags always fit on the table; a failure is a bug
		}
		scn.Seed = sim.DeriveSeed(seed, labelPowerControl, uint64(i), uint64(g))
		scn.RandomInitialImpedance = true
		scn.PowerControl = true
		scn.PacketsPerRound = 5
		points = append(points, scn)
	}
	for _, n := range []int{2, 3, 4} {
		for j, d := range []float64{0.1, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0} {
			scn := base
			scn.NumTags = n
			scn.TagLineDistance = d
			scn.Seed = sim.DeriveSeed(seed, labelGrid, uint64(i), uint64(j), uint64(n))
			points = append(points, scn)
		}
	}
	return points
}

// denseSICPoints is variant i of the paper's 10-tag headline load: default
// 31-chip Gold codes, SIC receiver on, over a distance sweep.
func denseSICPoints(seed int64, i int) []sim.Scenario {
	base := sim.DefaultScenario()
	base.NumTags = 10
	base.SIC = true
	base.Packets = 8
	base.PayloadBytes = 8
	var points []sim.Scenario
	for j, d := range []float64{0.5, 1.0, 1.5, 2.0, 2.5, 3.0} {
		scn := base
		scn.TagLineDistance = d
		scn.Seed = sim.DeriveSeed(seed, labelDense, uint64(i), uint64(j))
		points = append(points, scn)
	}
	return points
}

// smallPoint is the short point serve-mix and shard-sweep are made of:
// 2–4 tags at a drawn distance, few packets.
func smallPoint(rng *rand.Rand, seed int64, packets int) sim.Scenario {
	scn := sim.DefaultScenario()
	scn.NumTags = 2 + rng.Intn(3)
	scn.TagLineDistance = 0.5 + 0.5*float64(rng.Intn(5))
	scn.Packets = packets
	scn.PayloadBytes = 8
	scn.Seed = seed
	return scn
}

// shardSweepPoints is variant i of the many-small-points campaign the
// sharded workload runs.
func shardSweepPoints(seed int64, i int) []sim.Scenario {
	rng := rand.New(rand.NewSource(sim.DeriveSeed(seed, labelShard, uint64(i))))
	points := make([]sim.Scenario, 40)
	for j := range points {
		points[j] = smallPoint(rng, sim.DeriveSeed(seed, labelShard, uint64(i), uint64(j)), 10)
	}
	return points
}
