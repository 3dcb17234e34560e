package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"cbma/internal/fault"
	"cbma/internal/geom"
	"cbma/internal/mac"
	"cbma/internal/pn"
	"cbma/internal/rx"
	"cbma/internal/tag"
	"cbma/internal/trace"
)

// Engine runs collision rounds for one scenario. Construct with NewEngine.
// An Engine's exported methods are single-goroutine; Scenario.Workers
// controls the internal parallelism of the steady-state rounds (see
// DESIGN.md, "Execution model"). Every random draw comes from the named
// per-round streams of rngstream.go, so the metrics of a run depend only on
// (Scenario.Seed, run sequence), never on the worker count.
type Engine struct {
	scn  Scenario
	set  *pn.Set
	tags []*tag.Tag
	recv *rx.Receiver
	pc   *mac.PowerController
	// leadSamples is the noise-only region before the nominal frame start.
	leadSamples int
	// staticFading caches per-tag channel coefficients when the scenario
	// freezes the channel (Scenario.StaticChannel). Drawn once at
	// construction (phaseSetup) so steady-state rounds stay read-only.
	staticFading []complex128
	// inj evaluates the scenario's fault profile; nil when no faults are
	// injected. The injector is stateless per round (all per-round draws
	// come from the round's own streams), so round workers share it.
	inj *fault.Injector
	// recorder and player implement the paper's §VIII-C trace-driven
	// emulation (see RecordTo / ReplayFrom).
	recorder *trace.Recorder
	player   *trace.Player
	// round is the serial path's scratch; parallel workers own clones.
	round roundBuffers
	// runSeq distinguishes repeated Run/RunSchedule calls on one engine in
	// the stream derivation, so every placement of a deployment study sees
	// fresh randomness; adhocRound is the monotonic index of the serially
	// executed (phaseAdhoc) rounds.
	runSeq     uint64
	adhocRound uint64
	// eobs holds the pre-resolved telemetry instruments (no-ops when
	// Scenario.Obs is nil); committed numbers the commit-order round events.
	eobs      engineObs
	committed uint64
}

// NewEngine validates the scenario and builds the tag population and
// receiver.
func NewEngine(scn Scenario) (*Engine, error) {
	if err := scn.validate(); err != nil {
		return nil, err
	}
	set, err := pn.NewSet(scn.Family, scn.NumTags, scn.GoldDegree)
	if err != nil {
		return nil, fmt.Errorf("sim: building code set: %w", err)
	}
	spc := scn.SamplesPerChip()
	e := &Engine{
		scn:  scn,
		set:  set,
		eobs: newEngineObs(scn.Obs),
	}
	// Normalize the fault profile once; a nil or all-zero profile leaves
	// every fault path (injector, rx fallback) disabled so the run is
	// bit-identical to an unfaulted one.
	var fprof fault.Profile
	faultsOn := false
	if scn.Fault != nil {
		fprof = scn.Fault.WithDefaults()
		faultsOn = fprof.Enabled()
	}
	var bank tag.Bank
	if scn.ImpedanceStates > 0 {
		bank, err = tag.UniformBank(scn.ImpedanceStates)
		if err != nil {
			return nil, fmt.Errorf("sim: impedance bank: %w", err)
		}
	}
	for i := 0; i < scn.NumTags; i++ {
		tg, err := tag.New(i, tag.Config{
			Code:           set.Codes[i],
			SamplesPerChip: spc,
			Frame:          scn.Frame,
			Bank:           bank,
		}, scn.Deployment.Tags[i])
		if err != nil {
			return nil, fmt.Errorf("sim: tag %d: %w", i, err)
		}
		e.tags = append(e.tags, tg)
	}
	e.recv, err = rx.New(rx.Config{
		Codes:           set,
		SamplesPerChip:  spc,
		Frame:           scn.Frame,
		DetectThreshold: scn.DetectThreshold,
		SearchChips:     scn.SearchChips,
		NoiseFloorW:     scn.Channel.NoiseFloorW(),
		SIC:             scn.SIC,
		PhaseTracking:   scn.PhaseTracking,
		Obs:             scn.Obs,
		ReferenceSync:   scn.referenceSync,
		// Under injected clock faults the energy edge can smear past the
		// sync stage's tolerance; the reader-timed fallback keeps such
		// rounds decodable instead of silently empty.
		ResyncFallback: faultsOn,
	})
	if err != nil {
		return nil, fmt.Errorf("sim: receiver: %w", err)
	}
	if scn.PowerControl && !scn.OraclePowerControl {
		e.pc, err = mac.NewPowerController(e.powerControlConfig(), scn.NumTags)
		if err != nil {
			return nil, err
		}
	}
	// Construction-time draws come from the phaseSetup stream node.
	setup := newRoundStreams(scn.Seed, 0, phaseSetup, 0)
	if scn.RandomInitialImpedance {
		states := tag.NumImpedanceStates
		if scn.ImpedanceStates > 0 {
			states = scn.ImpedanceStates
		}
		rng := setup.rng(StreamSetup)
		for _, tg := range e.tags {
			state := tag.ImpedanceState(1 + rng.Intn(states))
			if err := tg.SetImpedance(state); err != nil {
				return nil, err
			}
		}
	}
	if scn.StaticChannel {
		rng := setup.rng(StreamFading)
		e.staticFading = make([]complex128, len(e.tags))
		for j := range e.staticFading {
			e.staticFading[j] = scn.Channel.DrawFading(rng)
		}
	}
	if faultsOn {
		// Static fault assignments draw from their own setup stream so the
		// legacy StreamSetup/StreamFading sequences are undisturbed and a
		// fault-free profile reproduces the unfaulted run exactly.
		e.inj = fault.NewInjector(fprof, scn.NumTags, setup.rng(StreamFaultTag))
		// Stuck switches freeze AFTER the initial impedance draw: the tag
		// powers up wherever it powers up and stays there.
		for _, tg := range e.tags {
			if e.inj.Stuck(tg.ID()) {
				tg.SetStuck(true)
			}
		}
	}
	// Noise lead: several bit durations so the energy detector has a
	// reference and the noise estimator a quiet region.
	e.leadSamples = 6 * set.ChipLength() * spc
	if e.leadSamples < 256 {
		e.leadSamples = 256
	}
	return e, nil
}

// Tags exposes the tag population (the macro experiments adjust positions
// and impedances between rounds).
func (e *Engine) Tags() []*tag.Tag { return e.tags }

// RecordTo captures every subsequent round's realized channel gains and
// clock offsets into rec — the paper's §VIII-C "real trace data … real
// imperfectness" emulation input. Pass nil to stop recording. Recording
// works under parallel execution too: rounds commit in round order, so the
// trace's Seq numbering matches the serial run's.
func (e *Engine) RecordTo(rec *trace.Recorder) { e.recorder = rec }

// ReplayFrom replays recorded rounds instead of drawing fresh channel and
// timing randomness: each round consumes one trace entry, reproducing the
// exact collisions of the recorded run (payloads and receiver noise are
// still drawn fresh — the trace captures the channel, not the data). Run
// fails with trace.ErrExhausted when the trace is shorter than the
// scenario's packet count. Pass nil to return to live channel draws.
//
// Replay is physical-layer replay: recorded gains already embed the
// impedance states in force during capture, so power-control adjustments
// have no effect while replaying. A player forces serial execution
// regardless of Scenario.Workers — the trace is an ordered stream.
func (e *Engine) ReplayFrom(p *trace.Player) { e.player = p }

// Receiver exposes the receiver, mainly for tests.
func (e *Engine) Receiver() *rx.Receiver { return e.recv }

// Scenario returns the engine's scenario after validation and defaulting —
// the authoritative geometry and configuration the rounds actually run
// with. Callers needing the deployment (e.g. node selection) should read it
// from here rather than re-defaulting the original input.
func (e *Engine) Scenario() Scenario { return e.scn }

// powerControlConfig builds the controller configuration, wiring the fault
// profile's feedback-timeout parameters in when a profile is present (the
// timeout path stays off otherwise — silence then reads as universal frame
// loss, the legacy Algorithm 1 behaviour).
func (e *Engine) powerControlConfig() mac.PowerControlConfig {
	cfg := mac.PowerControlConfig{Obs: e.scn.Obs}
	if e.scn.Fault != nil {
		p := e.scn.Fault.WithDefaults()
		cfg.FeedbackRetries = p.FeedbackRetries
		cfg.FallbackState = tag.ImpedanceState(p.FallbackImpedance)
	}
	return cfg
}

// runRound simulates one collision round on the serial (phaseAdhoc) path:
// every listed tag transmits one frame simultaneously; the receiver
// decodes; tags hear ACKs. The Algorithm 1 exploration batches,
// RunSchedule entries and the user-detection trials run through here — each
// consumes the next adhoc round's stream node. Rounds run through the
// resilient runner: a panicking or transiently failing round comes back
// quarantined, not as an error.
func (e *Engine) runRound(active []*tag.Tag) (roundResult, error) {
	rs := e.round.streams(e.scn.Seed, e.runSeq, phaseAdhoc, e.adhocRound)
	e.adhocRound++
	res, err := e.resilientRound(active, rs, &e.round, e.recv)
	if err != nil {
		return res, err
	}
	e.commitRound(active, res)
	return res, nil
}

// Run executes the scenario. With power control enabled, the Algorithm 1
// loop first runs as an exploration phase — measurement batches of
// PacketsPerRound frames, impedance adjustments in between, bounded by the
// 3×N-round budget — after which the best configuration seen is restored
// (the hardware analogue: the controller stops cycling once the FER target
// is met, so the system sits in the best state it found). The returned
// metrics then cover Packets steady-state collision rounds, executed on
// Scenario.Workers goroutines; the result is bit-identical for any worker
// count.
func (e *Engine) Run() (Metrics, error) {
	return e.RunContext(context.Background()) //cbma:allow ctxflow public convenience entrypoint roots its own context
}

// RunContext is Run with cooperative cancellation: the engine checks ctx
// between rounds (and between exploration batches) and, when it fires,
// returns the metrics of every round committed so far — finalized, with
// Metrics.Interrupted set — together with the context's error. Partial
// results are deterministic up to the cancellation point: the committed
// rounds are a prefix of the full run's.
func (e *Engine) RunContext(ctx context.Context) (Metrics, error) {
	seq := e.runSeq
	e.runSeq++
	if e.scn.PowerControl && e.scn.OraclePowerControl {
		if _, err := mac.EqualizePower(e.scn.Channel, e.scn.Deployment, e.tags); err != nil {
			return Metrics{}, err
		}
	}
	var m Metrics
	m.NumTags = e.scn.NumTags
	m.PerTagSent = make([]int, len(e.tags))
	m.PerTagDelivered = make([]int, len(e.tags))
	if e.inj != nil {
		m.Faults.StuckTags = e.inj.StuckCount()
	}
	if e.pc != nil {
		st, err := e.explorePowerControl(ctx)
		m.PowerControlRounds = st.rounds
		m.PowerControlConverged = st.converged
		m.PowerControlRetries = st.feedbackRetries
		m.PowerControlFellBack = st.fellBack
		m.Merge(st.resil)
		if err != nil {
			return e.finishRun(ctx, m, err)
		}
	}
	if err := e.runSteadyState(ctx, &m, seq); err != nil {
		return e.finishRun(ctx, m, err)
	}
	m.finalize(e.scn)
	return m, nil
}

// finishRun classifies a run-ending error: cancellation finalizes the
// partial metrics and marks them Interrupted (they are a valid, if
// truncated, measurement); configuration errors return the metrics as-is.
func (e *Engine) finishRun(ctx context.Context, m Metrics, err error) (Metrics, error) {
	if ctx.Err() != nil && errors.Is(err, ctx.Err()) {
		m.Interrupted = true
		m.finalize(e.scn)
	}
	return m, err
}

// workerCount resolves the steady-state worker count: Scenario.Workers,
// forced to 1 while a trace player is attached (replay is ordered).
func (e *Engine) workerCount() int {
	if e.player != nil {
		return 1
	}
	if e.scn.Workers > 1 {
		return e.scn.Workers
	}
	return 1
}

// runSteadyState executes the Packets steady-state collision rounds and
// merges them into m. Steady-state rounds have no feedback dependency on
// each other — the impedance configuration is frozen, tag ACK counters only
// feed Algorithm 1 which has already finished — and each round's randomness
// is a pure function of its index, so rounds may execute on workers in any
// order. Both paths commit and merge strictly in round order, which is what
// makes W=1 and W=N bit-identical.
func (e *Engine) runSteadyState(ctx context.Context, m *Metrics, seq uint64) error {
	packets := e.scn.Packets
	m.RoundsPlanned += packets
	workers := e.workerCount()
	if workers > packets {
		workers = packets
	}
	if workers <= 1 {
		for p := 0; p < packets; p++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			rs := e.round.streams(e.scn.Seed, seq, phaseSteady, uint64(p))
			res, err := e.resilientRound(e.tags, rs, &e.round, e.recv)
			if err != nil {
				return err
			}
			e.commitRound(e.tags, res)
			m.Merge(res.metrics(len(e.tags)))
		}
		return nil
	}
	return e.runSteadyParallel(ctx, m, seq, packets, workers)
}

// runSteadyParallel fans the steady-state rounds out to workers goroutines,
// each owning a cloned receiver and private scratch. Rounds are claimed off
// an atomic counter, executed out of order, then committed and merged in
// round order by the coordinator. Errors do not short-circuit — a failing
// round is a configuration bug, not a steady-state event — so every round's
// slot is filled and the first error by round index is the one reported,
// same as the serial loop. Cancellation stops workers from taking new
// claims; the coordinator then commits only the contiguous prefix of
// completed rounds, so an interrupted run's metrics are a prefix of the
// full run's (rounds finished beyond the first gap are discarded).
func (e *Engine) runSteadyParallel(ctx context.Context, m *Metrics, seq uint64, packets, workers int) error {
	results := make([]roundResult, packets)
	errs := make([]error, packets)
	done := make([]bool, packets)
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			recv := e.recv.Clone()
			var rb roundBuffers
			for {
				p := int(next.Add(1))
				if p >= packets {
					return
				}
				if ctx.Err() != nil {
					return
				}
				rs := rb.streams(e.scn.Seed, seq, phaseSteady, uint64(p))
				results[p], errs[p] = e.resilientRound(e.tags, rs, &rb, recv)
				done[p] = true
			}
		}()
	}
	wg.Wait()
	for p := 0; p < packets; p++ {
		if !done[p] {
			break
		}
		if errs[p] != nil {
			return errs[p]
		}
		e.commitRound(e.tags, results[p])
		m.Merge(results[p].metrics(len(e.tags)))
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return nil
}

// pcStats summarizes the exploration phase for RunContext.
type pcStats struct {
	rounds          int
	converged       bool
	feedbackRetries int
	fellBack        bool
	// resil carries the exploration rounds' degradation accounting (their
	// frame counters stay out of the run metrics — exploration is warm-up).
	resil Metrics
}

// explorePowerControl drives Algorithm 1 to convergence or budget
// exhaustion, then restores the impedance configuration with the lowest
// observed batch FER. The loop is inherently serial: each batch's outcome
// feeds the next impedance adjustment.
//
// Feedback-timeout handling (only armed when the fault profile sets
// FeedbackRetries): a batch with zero ACKs across the population makes the
// controller request a re-measurement instead of adjusting; the requested
// backoff scales the next batch (more airtime for a recovering downlink) —
// a logical backoff in measurement rounds, never a wall-clock sleep.
// Blackout FER readings are garbage (they measure the downlink), so they
// are excluded from best-configuration tracking, and the final restore
// keeps the controller's conservative fallback parking whenever no valid
// measurement was ever observed.
func (e *Engine) explorePowerControl(ctx context.Context) (pcStats, error) {
	var st pcStats
	snapshot := func() []tag.ImpedanceState {
		out := make([]tag.ImpedanceState, len(e.tags))
		for i, tg := range e.tags {
			out[i] = tg.Impedance()
		}
		return out
	}
	restore := func(states []tag.ImpedanceState) error {
		for i, tg := range e.tags {
			if err := tg.SetImpedance(states[i]); err != nil {
				return err
			}
		}
		return nil
	}
	bestFER := math.Inf(1)
	bestStates := snapshot()
	restoreBest := func() error {
		if math.IsInf(bestFER, 1) {
			return nil
		}
		return restore(bestStates)
	}
	batchScale := 1
	for {
		if err := ctx.Err(); err != nil {
			return st, err
		}
		batchStates := snapshot()
		batch := e.scn.PacketsPerRound * batchScale
		st.resil.RoundsPlanned += batch
		for p := 0; p < batch; p++ {
			res, err := e.runRound(e.tags)
			if err != nil {
				return st, err
			}
			st.resil.Merge(res.resilience())
		}
		before := e.pc.RoundsUsed()
		out, err := e.pc.Round(e.tags)
		if err != nil {
			return st, err
		}
		// st.rounds preserves the legacy meaning — budget-charged controller
		// rounds plus the final convergence check — while excluding the
		// uncharged blackout re-measurements.
		if e.pc.RoundsUsed() > before || !out.FeedbackLost {
			st.rounds++
		}
		batchScale = 1
		if out.FeedbackLost {
			if out.RetryBackoff > 0 {
				st.feedbackRetries++
				batchScale = 1 + out.RetryBackoff
			}
			if out.FellBack {
				st.fellBack = true
			}
			if out.Exhausted {
				return st, restoreBest()
			}
			continue
		}
		if out.FER < bestFER {
			bestFER = out.FER
			bestStates = batchStates
		}
		if out.Converged {
			st.converged = true
			return st, restoreBest()
		}
		if out.Exhausted {
			return st, restoreBest()
		}
	}
}

// RunWithPositions re-homes the tag population to the given positions and
// runs — the macro deployment experiments sweep many random placements.
// Tag ACK windows and the Algorithm 1 controller are both reset, so every
// placement starts exploration with a full round budget; previously the
// controller carried the spent budget (and adjustment history) of earlier
// placements into later ones.
func (e *Engine) RunWithPositions(positions []geom.Point) (Metrics, error) {
	return e.RunWithPositionsContext(context.Background(), positions) //cbma:allow ctxflow public convenience entrypoint roots its own context
}

// RunWithPositionsContext is RunWithPositions with cooperative cancellation
// (see RunContext for the partial-result contract).
func (e *Engine) RunWithPositionsContext(ctx context.Context, positions []geom.Point) (Metrics, error) {
	if len(positions) < len(e.tags) {
		return Metrics{}, ErrNoPositions
	}
	for i, tg := range e.tags {
		tg.MoveTo(positions[i])
		tg.ResetAckWindow()
	}
	if e.scn.PowerControl && !e.scn.OraclePowerControl {
		pc, err := mac.NewPowerController(e.powerControlConfig(), e.scn.NumTags)
		if err != nil {
			return Metrics{}, err
		}
		e.pc = pc
	}
	return e.RunContext(ctx)
}

// RunSchedule runs one collision round per schedule entry, with only the
// listed tag IDs transmitting in that round — the primitive beneath the
// TDMA baseline (one ID per entry) and the user-detection experiment
// (random subsets). Invalid IDs are rejected. Entries run serially
// (phaseAdhoc): the active set changes per round.
func (e *Engine) RunSchedule(schedule [][]int) (Metrics, error) {
	var m Metrics
	m.NumTags = e.scn.NumTags
	m.PerTagSent = make([]int, len(e.tags))
	m.PerTagDelivered = make([]int, len(e.tags))
	m.RoundsPlanned = len(schedule)
	for _, ids := range schedule {
		active := make([]*tag.Tag, 0, len(ids))
		for _, id := range ids {
			if id < 0 || id >= len(e.tags) {
				return m, fmt.Errorf("sim: schedule references tag %d of %d", id, len(e.tags))
			}
			active = append(active, e.tags[id])
		}
		r, err := e.runRound(active)
		if err != nil {
			return m, err
		}
		m.Merge(r.metrics(len(e.tags)))
	}
	m.finalize(e.scn)
	return m, nil
}
