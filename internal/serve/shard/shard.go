package shard

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cbma/internal/fault"
	"cbma/internal/obs"
	"cbma/internal/sim"
)

// Coordinator errors, distinguishable with errors.Is. They surface wrapped
// inside *sim.PointError/*sim.CampaignError so callers see the same error
// shapes as single-process campaigns.
var (
	// ErrCorruptReply marks a worker reply naming a point outside its
	// assignment (or one already delivered) — detected coordinator-side,
	// the attempt fails and the range redispatches.
	ErrCorruptReply = errors.New("shard: corrupt worker reply")
	// ErrStalled marks an attempt cancelled by the heartbeat monitor.
	ErrStalled = errors.New("shard: worker heartbeat timeout")
	// ErrQuarantined marks points abandoned after a range exhausted its
	// zero-progress retry budget — the campaign-level mirror of the
	// engine's round quarantine: the rest of the campaign completes.
	ErrQuarantined = errors.New("shard: point range quarantined after repeated worker failures")
)

// Config assembles a Coordinator. The zero value is usable: one shard,
// in-process transport, 10s heartbeat timeout, 3 retries with 50ms-base
// exponential backoff, no journal.
type Config struct {
	// Shards is the number of contiguous point ranges the campaign is cut
	// into (clamped to the point count); it is the unit of dispatch,
	// retry and reassignment. Zero or negative means 1.
	Shards int
	// Parallel bounds concurrently in-flight attempts. Zero means Shards.
	Parallel int
	// Transport executes assignments. Nil means Local{} (in-process).
	Transport Transport
	// HeartbeatTimeout cancels an attempt whose worker stops streaming
	// (no result and no beat) for this long. Zero means 10s; negative
	// disables the monitor.
	HeartbeatTimeout time.Duration
	// MaxAttempts is the consecutive zero-progress failures a range
	// tolerates before its remaining points are quarantined. An attempt
	// that commits at least one point resets the count — a worker that
	// crashes on every dispatch but always makes progress still converges.
	// Zero means 3.
	MaxAttempts int
	// Backoff is the delay before redispatching a failed range, doubling
	// per consecutive failure up to MaxBackoff. Zeros mean 50ms and 1s.
	Backoff    time.Duration
	MaxBackoff time.Duration
	// JournalDir, when set, journals committed points there and resumes
	// from any committed points already present (the directory must hold
	// this campaign's journal or none — see ErrJournalMismatch).
	JournalDir string
	// JournalRoot, when set (and JournalDir is not), derives a per-
	// campaign journal directory under it from the campaign hash, so one
	// root can journal many campaigns without collision.
	JournalRoot string
	// WorkerFaults, when non-nil and enabled, wraps the transport in the
	// chaos decorator (FaultyTransport) injecting worker crashes, stalls
	// and corrupt replies on the schedule fault.NewWorkerInjector derives.
	WorkerFaults *fault.WorkerProfile
	// Obs receives coordinator telemetry (shard.* counters, dispatch
	// events, attempt timings, campaign progress, the per-shard breakdown)
	// when neither the campaign's opts nor its points carry an observer.
	// Telemetry never changes results.
	Obs *obs.Observer
}

// Coordinator executes campaigns by sharding them over a Transport. It
// implements core.Runner, preserving sim.RunCampaignContext's contract:
// results indexed like points and bit-identical to a single-process run,
// failed points holding zero Metrics with detail in a *sim.CampaignError,
// cancellation returning the committed prefix with the context's error.
type Coordinator struct {
	cfg Config
}

// New builds a Coordinator, applying Config defaults.
func New(cfg Config) *Coordinator {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Parallel <= 0 {
		cfg.Parallel = cfg.Shards
	}
	if cfg.Transport == nil {
		cfg.Transport = Local{}
	}
	if cfg.HeartbeatTimeout == 0 {
		cfg.HeartbeatTimeout = 10 * time.Second
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 50 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = time.Second
	}
	if cfg.WorkerFaults != nil && cfg.WorkerFaults.Enabled() {
		cfg.Transport = &FaultyTransport{
			Inner:    cfg.Transport,
			Injector: fault.NewWorkerInjector(*cfg.WorkerFaults),
		}
	}
	return &Coordinator{cfg: cfg}
}

// task is one point range moving through dispatch. It is owned by exactly
// one dispatch goroutine at a time; ownership transfers through the task
// queue, which provides the happens-before edges for its mutable fields.
type task struct {
	shard     int
	dispatch  int   // total dispatch attempts (Assignment.Attempt)
	failures  int   // consecutive zero-progress failures (backoff, quarantine)
	pending   []int // uncommitted campaign point indices, ascending
	lastError error
}

// Run implements core.Runner.
func (c *Coordinator) Run(ctx context.Context, points []sim.Scenario, opts sim.CampaignOpts) ([]sim.Metrics, error) {
	if len(points) == 0 {
		return nil, nil
	}
	what := opts.What
	if what == "" {
		what = "sharded campaign"
	}
	o := opts.Obs
	if o == nil {
		// The daemon's batch layer attaches per-job observers to the points,
		// not the opts (mirroring sim.RunCampaignContext's fallback): route
		// shard telemetry into the job's own pipeline when present.
		o = points[0].Obs
	}
	if o == nil {
		o = c.cfg.Obs
	}
	// One trace ID covers the whole distributed campaign: every coordinator
	// event carries it, it rides the wire to workers, and the manifest
	// records it.
	o.EnsureTrace()
	out := make([]sim.Metrics, len(points))
	perr := make([]*sim.PointError, len(points))
	hashes := make([]string, len(points))
	var runnable []int
	for i := range points {
		h, err := points[i].Hash()
		if err != nil {
			perr[i] = &sim.PointError{What: what, Point: i, Err: err}
			continue
		}
		hashes[i] = h
		runnable = append(runnable, i)
	}

	journal, err := c.openJournal(what, hashes, o)
	if err != nil {
		return nil, err
	}

	// Resume: points already committed in the journal are restored, not
	// re-executed — the zero-re-execution half of the resume contract.
	var pending []int
	restored := 0
	for _, i := range runnable {
		if journal != nil {
			if m, ok := journal.Committed(i, hashes[i], points[i].Seed); ok {
				out[i] = m
				restored++
				continue
			}
		}
		pending = append(pending, i)
	}
	o.CampaignStart(what, len(points))
	o.Counter("shard.points.restored").Add(int64(restored))
	// Invalid + restored points are already resolved: they advance the
	// progress line as done but stay out of the ETA's pace sample, so a
	// resumed campaign projects from actually-executed points only.
	o.CampaignRestored(what, len(points)-len(pending))
	if len(pending) > 0 {
		c.dispatch(ctx, points, hashes, pending, opts, o, journal, what, out, perr)
	}
	o.CampaignEnd(what)

	var failed []*sim.PointError
	for _, pe := range perr {
		if pe != nil {
			failed = append(failed, pe)
		}
	}
	if len(failed) > 0 {
		return out, &sim.CampaignError{Points: failed}
	}
	if err := ctx.Err(); err != nil {
		return out, err
	}
	return out, nil
}

// openJournal resolves the configured journal location, deriving a per-
// campaign directory under JournalRoot when no explicit dir is given.
func (c *Coordinator) openJournal(what string, hashes []string, o *obs.Observer) (*Journal, error) {
	dir := c.cfg.JournalDir
	if dir == "" && c.cfg.JournalRoot != "" {
		dir = filepath.Join(c.cfg.JournalRoot, CampaignHash(hashes)[:16])
	}
	if dir == "" {
		return nil, nil
	}
	return OpenJournal(dir, what, hashes, o)
}

// dispatch cuts the pending points into ranges and drains them through the
// transport with retries, reassignment and quarantine. It returns once
// every range is resolved (committed, failed, quarantined) or the context
// is cancelled.
func (c *Coordinator) dispatch(ctx context.Context, points []sim.Scenario, hashes []string, pending []int, opts sim.CampaignOpts, o *obs.Observer, journal *Journal, what string, out []sim.Metrics, perr []*sim.PointError) {
	ranges := partition(pending, c.cfg.Shards)
	o.Counter("shard.ranges").Add(int64(len(ranges)))
	// The queue is the reassignment mechanism: a failed range is re-
	// enqueued and picked up by whichever dispatch goroutine frees first
	// — an orphaned range never belongs to the worker that lost it. The
	// buffer holds every live task, so re-enqueue never blocks.
	queue := make(chan *task, len(ranges))
	var outstanding atomic.Int64
	outstanding.Store(int64(len(ranges)))
	for s, idxs := range ranges {
		queue <- &task{shard: s, pending: idxs}
	}
	// finish retires one range; the last retirement closes the queue and
	// releases every dispatch goroutine.
	finish := func() {
		if outstanding.Add(-1) == 0 {
			close(queue)
		}
	}
	workers := c.cfg.Parallel
	if workers > len(ranges) {
		workers = len(ranges)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range queue {
				if ctx.Err() != nil {
					finish() // cancelled: leave the range unresolved, like undispatched points
					continue
				}
				if t.failures > 0 && !sleepCtx(ctx, c.backoff(t.failures)) {
					finish()
					continue
				}
				assigned := len(t.pending)
				progressed, err := c.attempt(ctx, t, points, hashes, opts, o, journal, what, out, perr)
				if err == nil && len(t.pending) > 0 {
					err = fmt.Errorf("%w: %d of %d undelivered", ErrShortReply, len(t.pending), assigned)
				}
				if err == nil || ctx.Err() != nil {
					finish()
					continue
				}
				t.lastError = err
				if progressed {
					t.failures = 1 // progress resets the quarantine clock, not the backoff
				} else {
					t.failures++
				}
				if t.failures >= c.cfg.MaxAttempts {
					c.quarantine(t, o, what, perr)
					finish()
					continue
				}
				o.Counter("shard.retries").Inc()
				if o.EmitsEvents() {
					o.Emit("shard_retry", map[string]any{
						"what": what, "shard": t.shard, "attempt": t.dispatch,
						"span_id": rangeSpan(o, t.shard),
						"pending": len(t.pending), "error": err.Error(),
					})
				}
				queue <- t // reassign: any free dispatch goroutine takes it
			}
		}()
	}
	wg.Wait()
}

// attempt dispatches one range once, streaming results through a sink that
// commits each point as it lands. It reports whether the attempt resolved
// at least one point and the transport's error, folding a heartbeat stall
// into ErrStalled.
func (c *Coordinator) attempt(ctx context.Context, t *task, points []sim.Scenario, hashes []string, opts sim.CampaignOpts, o *obs.Observer, journal *Journal, what string, out []sim.Metrics, perr []*sim.PointError) (bool, error) {
	a := Assignment{
		Shard:   t.shard,
		Attempt: t.dispatch,
		Indices: append([]int(nil), t.pending...),
		What:    what,
		Workers: opts.Workers,
		// Trace context and telemetry asks: workers relay their events only
		// when a sink exists to merge them into, and ship their registry
		// snapshot whenever any observer will fold it into the breakdown.
		TraceID:      o.TraceID(),
		RelayEvents:  o.EmitsEvents(),
		WantSnapshot: o != nil,
	}
	t.dispatch++
	for _, i := range a.Indices {
		scn := points[i]
		// Telemetry reaches the coordinator through the transport (the
		// worker's own observer), and the engine budget through a.Workers,
		// on the Local transport as over the wire.
		scn.Obs = nil
		scn.Workers = 0
		a.Points = append(a.Points, scn)
		a.Hashes = append(a.Hashes, hashes[i])
	}
	if c.cfg.HeartbeatTimeout > 0 {
		a.HeartbeatMS = int(c.cfg.HeartbeatTimeout.Milliseconds() / 3)
		if a.HeartbeatMS < 1 {
			a.HeartbeatMS = 1
		}
	}
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	span := rangeSpan(o, a.Shard)
	sink := &attemptSink{
		expected: make(map[int]bool, len(a.Indices)),
		beats:    make(chan struct{}, 1),
		points:   points, hashes: hashes, journal: journal,
		o: o, what: what, out: out, perr: perr,
		shard: a.Shard, attempt: a.Attempt, span: span,
	}
	for _, i := range a.Indices {
		sink.expected[i] = true
	}
	var stalled atomic.Bool
	var mwg sync.WaitGroup
	if c.cfg.HeartbeatTimeout > 0 {
		mwg.Add(1)
		go func() {
			defer mwg.Done()
			c.monitor(actx, cancel, sink.beats, &stalled, o)
		}()
	}
	o.Counter("shard.dispatches").Inc()
	o.Shards().AddAttempt(a.Shard)
	if o.EmitsEvents() {
		o.Emit("shard_dispatch", map[string]any{
			"what": what, "shard": a.Shard, "attempt": a.Attempt,
			"span_id": span, "points": len(a.Indices),
		})
	}
	sp := o.Start(o.Histogram("shard.attempt_ns"))
	err := c.cfg.Transport.Execute(actx, a, sink)
	ns := sp.End()
	cancel()
	mwg.Wait()
	// Remove resolved points from the range; what is left redispatches.
	var remaining []int
	for _, i := range t.pending {
		if !sink.resolved[i] {
			remaining = append(remaining, i)
		}
	}
	t.pending = remaining
	if stalled.Load() && (err != nil || len(t.pending) > 0) {
		err = fmt.Errorf("%w after %v", ErrStalled, c.cfg.HeartbeatTimeout)
	}
	if err != nil && len(t.pending) == 0 {
		// Every point landed before the failure — the attempt did its job.
		err = nil
	}
	if o.EmitsEvents() {
		f := map[string]any{
			"what": what, "shard": a.Shard, "attempt": a.Attempt,
			"span_id": span, "delivered": len(sink.resolved),
			"pending": len(t.pending), "ns": ns,
		}
		if err != nil {
			f["error"] = err.Error()
		}
		o.Emit("shard_attempt_done", f)
	}
	return len(sink.resolved) > 0, err
}

// rangeSpan derives the stable span ID for a shard's point range: the same
// campaign trace and shard always yield the same ID, which is what lets
// cbmaobs join a range's dispatch, retry and commit events across attempts.
func rangeSpan(o *obs.Observer, shard int) string {
	return obs.SpanID(o.TraceID(), "shard", strconv.Itoa(shard))
}

// quarantine abandons a range's remaining points, mirroring the engine's
// round quarantine at campaign scale: each point fails with a
// *sim.PointError wrapping ErrQuarantined and the campaign moves on.
func (c *Coordinator) quarantine(t *task, o *obs.Observer, what string, perr []*sim.PointError) {
	cause := t.lastError
	if cause == nil {
		cause = errors.New("unknown failure")
	}
	for _, i := range t.pending {
		perr[i] = &sim.PointError{What: what, Point: i,
			Err: fmt.Errorf("%w (shard %d, %d attempts): %v", ErrQuarantined, t.shard, t.dispatch, cause)}
		o.CampaignPoint()
	}
	o.Counter("shard.points.quarantined").Add(int64(len(t.pending)))
	if o.EmitsEvents() {
		o.Emit("shard_quarantine", map[string]any{
			"what": what, "shard": t.shard, "attempts": t.dispatch,
			"span_id": rangeSpan(o, t.shard),
			"points":  len(t.pending), "error": cause.Error(),
		})
	}
}

// monitor watches one attempt's liveness: every delivery or beat re-arms
// the timer; silence for the full timeout marks the attempt stalled and
// cancels it. The timer is stopped-and-drained before every Reset, and
// only this goroutine touches it.
func (c *Coordinator) monitor(ctx context.Context, cancel context.CancelFunc, beats <-chan struct{}, stalled *atomic.Bool, o *obs.Observer) {
	hb := time.NewTimer(c.cfg.HeartbeatTimeout)
	defer hb.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-beats:
			if !hb.Stop() {
				select {
				case <-hb.C:
				default:
				}
			}
			hb.Reset(c.cfg.HeartbeatTimeout)
		case <-hb.C:
			stalled.Store(true)
			o.Counter("shard.heartbeat_timeouts").Inc()
			cancel()
			return
		}
	}
}

// backoff returns the capped-exponential redispatch delay for the n-th
// consecutive failure (n >= 1).
func (c *Coordinator) backoff(n int) time.Duration {
	d := c.cfg.Backoff
	for i := 1; i < n; i++ {
		d *= 2
		if d >= c.cfg.MaxBackoff {
			return c.cfg.MaxBackoff
		}
	}
	if d > c.cfg.MaxBackoff {
		d = c.cfg.MaxBackoff
	}
	return d
}

// sleepCtx sleeps for d unless ctx is cancelled first; it reports whether
// the full sleep elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// partition cuts the pending indices into at most shards contiguous,
// near-equal ranges — deterministic, so a resumed campaign re-partitions
// identically and fault schedules (keyed by shard) replay.
func partition(pending []int, shards int) [][]int {
	if shards > len(pending) {
		shards = len(pending)
	}
	out := make([][]int, 0, shards)
	for s := 0; s < shards; s++ {
		lo := s * len(pending) / shards
		hi := (s + 1) * len(pending) / shards
		out = append(out, pending[lo:hi])
	}
	return out
}

// attemptSink commits an attempt's streamed results: validation (only
// assigned, not-yet-delivered points are accepted), journaling, telemetry
// and progress. Beat/Deliver are called only from the attempt's dispatch
// goroutine; Event/Telemetry may also arrive from a transport relay
// goroutine and touch only concurrency-safe state (the observer and the
// per-shard collector), never the expected/resolved maps.
type attemptSink struct {
	expected map[int]bool // assigned and not yet delivered this attempt
	resolved map[int]bool // delivered this attempt (result or point error)
	beats    chan struct{}

	points  []sim.Scenario
	hashes  []string
	journal *Journal
	o       *obs.Observer
	what    string
	out     []sim.Metrics
	perr    []*sim.PointError

	shard   int
	attempt int
	span    string // the range's span ID (see rangeSpan)
}

// Beat implements Sink; it never blocks (the monitor drains the buffered
// channel, and a beat arriving while one is pending is redundant).
func (s *attemptSink) Beat() {
	s.o.Shards().AddBeat(s.shard)
	select {
	case s.beats <- struct{}{}:
	default:
	}
}

// Event implements Sink: a relayed worker event re-emits into the campaign
// stream tagged with its origin and trace context. The worker's own
// timestamp (ns since the worker's run epoch) is preserved as worker_t_ns;
// the merged stream's t_ns is the coordinator's. Relayed events also count
// as liveness — a worker busy inside a long point still streams telemetry.
func (s *attemptSink) Event(ev obs.Event) {
	s.Beat()
	s.o.Counter("shard.events.relayed").Inc()
	if !s.o.EmitsEvents() {
		return
	}
	f := ev.Fields
	if f == nil {
		f = make(map[string]any, 4)
	}
	f["shard"] = s.shard
	f["attempt"] = s.attempt
	f["span_id"] = s.span
	f["worker_t_ns"] = ev.T
	s.o.Emit(ev.Type, f)
}

// Telemetry implements Sink: the worker's registry snapshot merges into
// the campaign's per-shard breakdown (a reassigned range merges every
// attempt's snapshot).
func (s *attemptSink) Telemetry(snap obs.Snapshot) {
	s.o.Shards().MergeRegistry(s.shard, snap)
}

// Deliver implements Sink.
func (s *attemptSink) Deliver(r PointResult) error {
	s.Beat()
	if !s.expected[r.Index] {
		s.o.Counter("shard.corrupt_replies").Inc()
		return fmt.Errorf("%w: point %d is not in the assignment (or already delivered)", ErrCorruptReply, r.Index)
	}
	delete(s.expected, r.Index)
	if s.resolved == nil {
		s.resolved = make(map[int]bool)
	}
	s.resolved[r.Index] = true
	failed := r.Err != ""
	if failed {
		s.perr[r.Index] = &sim.PointError{What: s.what, Point: r.Index, Err: errors.New(r.Err)}
		s.o.Counter("shard.points.failed").Inc()
	} else {
		s.out[r.Index] = r.Metrics
		if s.journal != nil {
			s.journal.Commit(r.Index, s.hashes[r.Index], s.points[r.Index].Seed, r.Metrics)
		}
		s.o.Counter("shard.points.committed").Inc()
	}
	s.o.Shards().AddPoint(s.shard, failed)
	if s.o.EmitsEvents() {
		f := map[string]any{
			"what": s.what, "shard": s.shard, "attempt": s.attempt, "point": r.Index,
			"span_id": obs.SpanID(s.o.TraceID(), "point", strconv.Itoa(r.Index)),
		}
		if failed {
			f["failed"] = true
		}
		if r.ElapsedNs > 0 {
			f["ns"] = r.ElapsedNs
		}
		s.o.Emit("shard_point", f)
	}
	s.o.CampaignPoint()
	return nil
}
