package sim

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"cbma/internal/channel"
	"cbma/internal/fault"
	"cbma/internal/trace"
)

// workerScenarios are the bit-reproducibility fixtures: the plain engine,
// the SIC receiver under CFO, power control with a lossy ACK downlink, a
// static channel with external interference, and a run with every fault
// layer armed — together they exercise every RNG stream of the round
// pipeline, including the fault streams and the quarantine/retry paths.
func workerScenarios(t *testing.T) map[string]Scenario {
	t.Helper()
	plain := fastScenario()
	plain.NumTags = 3
	plain.Packets = packets(t, 24)

	sic := fastScenario()
	sic.NumTags = 4
	sic.Packets = packets(t, 24)
	sic.SIC = true
	sic.CFOppm = 0.1
	sic.PhaseTracking = true

	pc := fastScenario()
	pc.NumTags = 3
	pc.Packets = packets(t, 24)
	pc.PowerControl = true
	pc.RandomInitialImpedance = true
	pc.AckLossProb = 0.2

	static := fastScenario()
	static.NumTags = 3
	static.Packets = packets(t, 24)
	static.StaticChannel = true
	static.Interferers = []channel.Interferer{
		{WiFi: &channel.WiFiInterferer{PowerDBm: static.Channel.NoiseFloorDBm + 10}},
	}
	static.OFDMExcitation = true

	faulted := fastScenario()
	faulted.NumTags = 3
	faulted.Packets = packets(t, 24)
	faulted.PowerControl = true
	faulted.RandomInitialImpedance = true
	faulted.Fault = &fault.Profile{
		StuckImpedanceProb: 0.3,
		ClockDriftChips:    0.2,
		ExtraJitterChips:   0.2,
		EnergyOutageProb:   0.1,
		AckLossProb:        0.2,
		AckCorruptProb:     0.1,
		SpuriousAckProb:    0.05,
		FeedbackRetries:    2,
		BurstProb:          0.1,
		DeepFadeProb:       0.1,
		PanicProb:          0.05,
		TransientErrProb:   0.1,
	}

	return map[string]Scenario{
		"plain":        plain,
		"sic+cfo":      sic,
		"powercontrol": pc,
		"static+intf":  static,
		"faulted":      faulted,
	}
}

// TestRunWorkerEquivalence is the refactor's hard invariant: for a fixed
// seed, Engine.Run returns bit-identical Metrics regardless of the worker
// count.
func TestRunWorkerEquivalence(t *testing.T) {
	for name, scn := range workerScenarios(t) {
		t.Run(name, func(t *testing.T) {
			var results []Metrics
			for _, workers := range []int{1, 4, 7} {
				s := scn
				s.Workers = workers
				e, err := NewEngine(s)
				if err != nil {
					t.Fatal(err)
				}
				m, err := e.Run()
				if err != nil {
					t.Fatal(err)
				}
				results = append(results, m)
			}
			for i := 1; i < len(results); i++ {
				if !reflect.DeepEqual(results[0], results[i]) {
					t.Errorf("metrics diverge between 1 worker and %d workers:\n  W=1: %+v\n  W=n: %+v",
						[]int{1, 4, 7}[i], results[0], results[i])
				}
			}
		})
	}
}

// TestCampaignWorkerEquivalence extends the invariant to RunCampaign: the
// worker budget must never change results, only wall-clock.
func TestCampaignWorkerEquivalence(t *testing.T) {
	base := fastScenario()
	base.Packets = packets(t, 16)
	var points []Scenario
	for i := 0; i < 4; i++ {
		scn := base
		scn.NumTags = 2 + i%2
		scn.Seed = DeriveSeed(base.Seed, 9999, uint64(i))
		points = append(points, scn)
	}
	serial, err := RunCampaign(points, CampaignOpts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := RunCampaign(points, CampaignOpts{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, wide) {
		t.Errorf("campaign results depend on worker budget:\n  W=1: %+v\n  W=8: %+v", serial, wide)
	}
}

// randomPartial builds a plausible per-round Metrics partial.
func randomPartial(rng *rand.Rand, numTags int) Metrics {
	m := Metrics{
		NumTags:         numTags,
		FramesSent:      numTags,
		AirtimeSamples:  int64(10000 + rng.Intn(5000)),
		PerTagSent:      make([]int, numTags),
		PerTagDelivered: make([]int, numTags),
	}
	for id := 0; id < numTags; id++ {
		m.PerTagSent[id] = 1
		if rng.Intn(2) == 0 {
			m.PerTagDelivered[id] = 1
			m.FramesDelivered++
		}
		if rng.Intn(2) == 0 {
			m.FramesDetected++
		}
	}
	if rng.Intn(8) == 0 {
		m.FalseFrames++
	}
	return m
}

// TestMetricsMergeProperties checks that merging per-round partials in any
// order or partition equals serial accumulation, and that finalize is
// idempotent on the merged result.
func TestMetricsMergeProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const numTags, rounds = 5, 40
	partials := make([]Metrics, rounds)
	for i := range partials {
		partials[i] = randomPartial(rng, numTags)
	}

	var serial Metrics
	for _, p := range partials {
		serial.Merge(p)
	}

	// Any order: merge a shuffled copy.
	var shuffled Metrics
	for _, i := range rng.Perm(rounds) {
		shuffled.Merge(partials[i])
	}
	if !reflect.DeepEqual(serial, shuffled) {
		t.Errorf("shuffled merge differs from serial:\n  serial:   %+v\n  shuffled: %+v", serial, shuffled)
	}

	// Any partition: merge chunks into sub-aggregates, then merge those.
	for _, chunk := range []int{1, 3, 7, rounds} {
		var parted Metrics
		for lo := 0; lo < rounds; lo += chunk {
			hi := lo + chunk
			if hi > rounds {
				hi = rounds
			}
			var sub Metrics
			for _, p := range partials[lo:hi] {
				sub.Merge(p)
			}
			parted.Merge(sub)
		}
		if !reflect.DeepEqual(serial, parted) {
			t.Errorf("chunk-%d partition merge differs from serial", chunk)
		}
	}

	// Ragged per-tag slices grow to the widest input.
	var ragged Metrics
	ragged.Merge(Metrics{PerTagSent: []int{1}, PerTagDelivered: []int{1}})
	ragged.Merge(Metrics{PerTagSent: []int{0, 2, 3}, PerTagDelivered: []int{0, 1, 0}})
	if want := []int{1, 2, 3}; !reflect.DeepEqual(ragged.PerTagSent, want) {
		t.Errorf("ragged PerTagSent = %v, want %v", ragged.PerTagSent, want)
	}

	// finalize idempotence: deriving rates twice changes nothing, and
	// AirtimeSeconds comes out of the integral sample count.
	scn := DefaultScenario()
	once := serial
	once.finalize(scn)
	twice := once
	twice.finalize(scn)
	if !reflect.DeepEqual(once, twice) {
		t.Errorf("finalize is not idempotent:\n  once:  %+v\n  twice: %+v", once, twice)
	}
	if want := float64(serial.AirtimeSamples) / scn.SampleRateHz; once.AirtimeSeconds != want {
		t.Errorf("AirtimeSeconds = %v, want %v from %d samples", once.AirtimeSeconds, want, serial.AirtimeSamples)
	}
}

// TestTraceRecordParallel guards the recorder against out-of-order round
// completion: a W>1 run must record the identical trace, in Seq order, as
// the serial run, and the trace must replay serially.
func TestTraceRecordParallel(t *testing.T) {
	scn := fastScenario()
	scn.NumTags = 3
	scn.Packets = packets(t, 24)

	record := func(workers int) *trace.Trace {
		s := scn
		s.Workers = workers
		e, err := NewEngine(s)
		if err != nil {
			t.Fatal(err)
		}
		rec := trace.NewRecorder("parallel capture")
		e.RecordTo(rec)
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return rec.Trace()
	}
	serial := record(1)
	parallel := record(4)

	if len(parallel.Rounds) != scn.Packets {
		t.Fatalf("recorded %d rounds, want %d", len(parallel.Rounds), scn.Packets)
	}
	for i, r := range parallel.Rounds {
		if r.Seq != i {
			t.Fatalf("round %d recorded with Seq %d — rounds committed out of order", i, r.Seq)
		}
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("parallel run recorded a different trace than the serial run")
	}

	// The recorded rounds replay: each consumes one entry in Seq order
	// (replay forces the serial path even with Workers set).
	replay := scn
	replay.Workers = 4
	e, err := NewEngine(replay)
	if err != nil {
		t.Fatal(err)
	}
	player := trace.NewPlayer(parallel)
	e.ReplayFrom(player)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if player.Remaining() != 0 {
		t.Errorf("replay left %d rounds unconsumed", player.Remaining())
	}
}

// TestDeriveSeedCollisionFree checks the property the sweep harnesses rely
// on: distinct label tuples give distinct seeds. The additive arithmetic it
// replaced collided within this exact grid (point i, tag count n with
// i+1000n aliasing across pairs).
func TestDeriveSeedCollisionFree(t *testing.T) {
	seen := map[int64][]uint64{}
	for sweep := uint64(1); sweep <= 12; sweep++ {
		for i := uint64(0); i < 50; i++ {
			for n := uint64(0); n < 12; n++ {
				s := DeriveSeed(1, sweep, i, n)
				if prev, dup := seen[s]; dup {
					t.Fatalf("seed collision: labels (%d,%d,%d) and %v both give %d", sweep, i, n, prev, s)
				}
				seen[s] = []uint64{sweep, i, n}
			}
		}
	}

	// The legacy arithmetic collides on this same grid — the reason it had
	// to go.
	old := func(seed int64, i, n int64) int64 { return seed + i + n*1000 }
	if old(1, 1000, 1) != old(1, 0, 2) {
		t.Fatal("expected the legacy arithmetic to collide on (1000,1) vs (0,2)")
	}

	// Label order matters: (a,b) and (b,a) must not alias.
	if DeriveSeed(1, 2, 3) == DeriveSeed(1, 3, 2) {
		t.Error("DeriveSeed is label-order-insensitive")
	}
	// Base seed matters.
	if DeriveSeed(1, 2, 3) == DeriveSeed(2, 2, 3) {
		t.Error("DeriveSeed ignores the base seed")
	}
}

// TestStreamSeedsDistinct checks the per-round stream tree: every
// (runSeq, phase, round, stream) node draws from its own generator seed.
func TestStreamSeedsDistinct(t *testing.T) {
	type node struct {
		runSeq, phase, round uint64
		id                   StreamID
	}
	seen := map[int64]node{}
	for runSeq := uint64(0); runSeq < 3; runSeq++ {
		for phase := uint64(0); phase < 3; phase++ {
			for round := uint64(0); round < 64; round++ {
				for id := StreamID(0); id < numStreams; id++ {
					s := streamSeed(1, runSeq, phase, round, id)
					if prev, dup := seen[s]; dup {
						t.Fatalf("stream seed collision: %+v and %+v both give %d",
							node{runSeq, phase, round, id}, prev, s)
					}
					seen[s] = node{runSeq, phase, round, id}
				}
			}
		}
	}
}

// TestStreamPoolReseedMatchesFresh: a pooled generator reseeded for a new
// round draws exactly what a freshly constructed one does — including after
// a partial byte Read, whose buffered position the reseed must discard —
// and the pool keeps one generator per stream across rounds.
func TestStreamPoolReseedMatchesFresh(t *testing.T) {
	var rb roundBuffers
	var first [numStreams]*rand.Rand
	for round := uint64(0); round < 3; round++ {
		pooled := rb.streams(1, 0, phaseSteady, round)
		fresh := newRoundStreams(1, 0, phaseSteady, round)
		for id := StreamID(0); id < numStreams; id++ {
			p, f := pooled.rng(id), fresh.rng(id)
			if round == 0 {
				first[id] = p
			} else if p != first[id] {
				t.Fatalf("round %d stream %d: pool built a new generator", round, id)
			}
			pb, fb := make([]byte, 3), make([]byte, 3)
			p.Read(pb)
			f.Read(fb)
			if !bytes.Equal(pb, fb) || p.Float64() != f.Float64() || p.NormFloat64() != f.NormFloat64() {
				t.Fatalf("round %d stream %d: reseeded generator diverges from a fresh one", round, id)
			}
			if pooled.rng(id).Int63() != fresh.rng(id).Int63() {
				t.Fatalf("round %d stream %d: a live stream restarted on its second use", round, id)
			}
		}
	}
}

// TestRunWithPositionsResetsPowerControl: each placement must start the
// Algorithm 1 exploration with a full round budget. With a fully lossy ACK
// downlink the loop can never converge, so every run must burn the whole
// 3×N budget; before the fix the controller carried the spent budget into
// the next placement, which then gave up after a single round.
func TestRunWithPositionsResetsPowerControl(t *testing.T) {
	scn := fastScenario()
	scn.NumTags = 3
	scn.Packets = packets(t, 8)
	scn.PacketsPerRound = 2
	scn.PowerControl = true
	scn.RandomInitialImpedance = true
	scn.AckLossProb = 1

	e, err := NewEngine(scn)
	if err != nil {
		t.Fatal(err)
	}
	positions := e.Scenario().Deployment.Tags[:scn.NumTags]
	wantRounds := 3 * scn.NumTags
	for run := 0; run < 2; run++ {
		m, err := e.RunWithPositions(positions)
		if err != nil {
			t.Fatal(err)
		}
		if m.PowerControlRounds != wantRounds {
			t.Errorf("placement %d used %d power-control rounds, want the full %d budget",
				run, m.PowerControlRounds, wantRounds)
		}
		if m.PowerControlConverged {
			t.Errorf("placement %d converged with a fully lossy ACK downlink", run)
		}
	}
}

// TestRepeatedRunsDrawFreshRandomness: two Run calls on one engine must not
// replay the same per-round streams (runSeq separates them); two engines
// with the same scenario must reproduce each other exactly.
func TestRepeatedRunsDrawFreshRandomness(t *testing.T) {
	scn := fastScenario()
	scn.NumTags = 3
	scn.Packets = packets(t, 24)

	e, err := NewEngine(scn)
	if err != nil {
		t.Fatal(err)
	}
	rec1 := trace.NewRecorder("run 1")
	e.RecordTo(rec1)
	m1, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	rec2 := trace.NewRecorder("run 2")
	e.RecordTo(rec2)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.RecordTo(nil)
	// Same engine, consecutive runs: fresh randomness. The recorded
	// channel realizations (continuous fading draws) coincide only if the
	// second run replayed the first's streams — i.e. runSeq was not mixed
	// into the stream seeds.
	if reflect.DeepEqual(rec1.Trace().Rounds, rec2.Trace().Rounds) {
		t.Errorf("second Run drew the first run's channel realizations — runSeq not mixed into stream seeds")
	}

	// Fresh engine, same scenario: bit-identical first run.
	f, err := NewEngine(scn)
	if err != nil {
		t.Fatal(err)
	}
	m3, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m1, m3) {
		t.Errorf("fresh engine did not reproduce the first run:\n  m1: %+v\n  m3: %+v", m1, m3)
	}
}
