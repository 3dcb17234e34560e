// Package shard is the distributed campaign executor: a coordinator that
// deterministically partitions a campaign's points into contiguous ranges,
// dispatches them to workers behind a Transport seam, and merges the
// streamed per-point results into a slice bit-identical to single-process
// sim.RunCampaign. Determinism makes that merge trivial — each point's
// Metrics depend only on its scenario (per-point DeriveSeed, worker-count
// invariant rounds, telemetry off the result path) — so the coordinator's
// whole job is fault tolerance: heartbeat timeouts, capped-exponential
// retries, reassignment of orphaned ranges, and a journal of committed
// results so an interrupted campaign resumes with zero re-execution.
// See DESIGN.md, "Distributed execution & resume".
package shard

import (
	"context"
	"errors"

	"cbma/internal/obs"
	"cbma/internal/serve/core"
	"cbma/internal/sim"
)

// Assignment is one dispatch attempt: a range of campaign points for a
// worker to execute. Indices are campaign point indices (ascending);
// Points and Hashes are indexed like Indices. A retried range carries only
// its still-uncommitted points, which is what guarantees a committed point
// never re-executes.
type Assignment struct {
	// Shard is the range's stable identity within the campaign (fault
	// schedules and telemetry key off it); Attempt counts dispatches of
	// this range, from zero.
	Shard   int
	Attempt int
	// Indices are the campaign point indices in this attempt.
	Indices []int
	// Points are the scenarios, indexed like Indices. Obs and Workers are
	// cleared: telemetry flows back through the transport and the engine
	// budget travels in Workers below.
	Points []sim.Scenario
	// Hashes are the points' Scenario.Hash() identities, indexed like
	// Indices; workers re-derive and verify them (wire-fidelity check).
	Hashes []string
	// What labels the campaign in errors and events.
	What string
	// Workers is the engine worker budget for the executing worker.
	Workers int
	// HeartbeatMS asks the worker to emit liveness beats this often; zero
	// means the transport's default.
	HeartbeatMS int
	// TraceID is the campaign's trace identifier; it rides the wire so
	// worker-side telemetry can reference the campaign that dispatched it.
	TraceID string
	// RelayEvents asks the worker to stream its telemetry events (round
	// lifecycle, faults, per-point timings) back for the coordinator to
	// merge into the campaign's event stream.
	RelayEvents bool
	// WantSnapshot asks the worker to ship its registry snapshot with the
	// done marker so the coordinator can build the per-shard breakdown.
	WantSnapshot bool
}

// PointResult is one completed point streamed back from a worker. Err, when
// non-empty, is a point-level failure (engine config error or point panic)
// — the point is resolved, not retried, mirroring sim.PointError semantics.
type PointResult struct {
	Index   int         `json:"index"`
	Metrics sim.Metrics `json:"metrics"`
	Err     string      `json:"error,omitempty"`
	// ElapsedNs is the worker-side execution time of this point — telemetry
	// riding along with the result, never entering the journal or Metrics.
	ElapsedNs int64 `json:"elapsed_ns,omitempty"`
}

// Sink receives a shard attempt's streamed output on the coordinator side.
// Beat and Deliver are only ever called from the goroutine running
// Transport.Execute; Event and Telemetry may additionally arrive from a
// transport-owned relay goroutine, so implementations must allow them to
// run concurrently with Beat/Deliver.
type Sink interface {
	// Beat signals liveness without delivering a result; Deliver implies
	// a beat.
	Beat()
	// Deliver hands one completed point to the coordinator. A non-nil
	// error (e.g. ErrCorruptReply for an out-of-assignment index) tells
	// the transport to abandon the attempt and return it.
	Deliver(PointResult) error
	// Event hands over one worker telemetry event (sent only when the
	// assignment set RelayEvents). Best-effort: events never affect
	// results and a lost event is not an error.
	Event(ev obs.Event)
	// Telemetry hands over the worker's registry snapshot (sent with the
	// done marker when the assignment set WantSnapshot).
	Telemetry(snap obs.Snapshot)
}

// Transport executes one assignment, streaming results into the sink.
// Execute returns nil only if every assigned point was delivered; the
// coordinator treats any error — or a short reply — as a failed attempt
// and redispatches the range's uncommitted remainder. Implementations
// must stop promptly when ctx is cancelled (the heartbeat monitor cancels
// it on a stall).
type Transport interface {
	Execute(ctx context.Context, a Assignment, sink Sink) error
}

// ErrShortReply marks an attempt whose transport returned success without
// delivering every assigned point — a protocol violation treated like a
// worker failure.
var ErrShortReply = errors.New("shard: worker reply missing assigned points")

// Local is the in-process Transport: points run through a core.Runner one
// at a time, delivering each as it completes. It is the coordinator's
// default, the reference implementation the subprocess transport is tested
// against, and the seam chaos tests wrap.
type Local struct {
	// Runner executes single-point campaigns; nil means the production
	// engine (core.CampaignRunner).
	Runner core.Runner
	// Clock times worker-side telemetry (point durations, event stamps)
	// when the assignment requests it. Nil is fine — spans read as zero —
	// so tests stay deterministic; binaries are expected to run sharded
	// campaigns over Subprocess, which always uses the system clock.
	Clock obs.Clock
}

// Execute implements Transport.
func (l Local) Execute(ctx context.Context, a Assignment, sink Sink) error {
	runner := l.Runner
	if runner == nil {
		runner = core.CampaignRunner{}
	}
	// The "worker side" of the in-process transport mirrors a subprocess
	// worker: its own observer whose events relay straight into the sink
	// and whose registry ships as the attempt's snapshot.
	var (
		wo    *obs.Observer
		relay *obs.Sink
	)
	if a.RelayEvents || a.WantSnapshot {
		if a.RelayEvents {
			relay = obs.NewRelaySink(sink.Event, 0)
		}
		wo = obs.New(obs.Config{Clock: l.Clock, Sink: relay})
	}
	// Drain the relay on every return so no relayed event outlives the
	// attempt and the relay goroutine is always joined.
	defer func() { _ = relay.Close() }()
	for j := range a.Points {
		if err := ctx.Err(); err != nil {
			return err
		}
		res, err := runPoint(ctx, runner, a.Points[j], a.What, a.Workers, wo)
		if err != nil {
			return err
		}
		res.Index = a.Indices[j]
		if err := sink.Deliver(res); err != nil {
			return err
		}
	}
	if a.WantSnapshot {
		sink.Telemetry(wo.Registry().Snapshot())
	}
	return nil
}

// runPoint executes one point as a single-point campaign, folding the
// campaign-level error shapes into the wire result: a point-level failure
// becomes PointResult.Err (resolved, not retried), cancellation propagates
// as an error (partial Interrupted metrics must never be committed). The
// observer, when non-nil, instruments the engine and times the point
// (shard.point_ns) — telemetry only; Metrics are bit-identical either way.
func runPoint(ctx context.Context, runner core.Runner, scn sim.Scenario, what string, workers int, o *obs.Observer) (PointResult, error) {
	sp := o.Start(o.Histogram("shard.point_ns"))
	ms, err := runner.Run(ctx, []sim.Scenario{scn}, sim.CampaignOpts{Workers: workers, What: what, Obs: o})
	ns := sp.End()
	if cerr := ctx.Err(); cerr != nil {
		return PointResult{}, cerr
	}
	if err != nil {
		var ce *sim.CampaignError
		if errors.As(err, &ce) {
			return PointResult{Err: ce.Points[0].Err.Error(), ElapsedNs: ns}, nil
		}
		return PointResult{}, err
	}
	if len(ms) != 1 {
		return PointResult{}, ErrShortReply
	}
	if ms[0].Interrupted {
		// Belt and braces: an Interrupted result without a ctx error would
		// poison the journal with a partial computation.
		return PointResult{}, context.Canceled
	}
	return PointResult{Metrics: ms[0], ElapsedNs: ns}, nil
}
