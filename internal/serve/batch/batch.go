// Package batch turns individual campaign submissions into batched
// executions: submissions wait in one arrival-order queue, and an idle
// executor takes the head job together with every queued job of the same
// class, up to a point cap, as one campaign run sharing a worker budget.
// Jobs cancel cooperatively and the queue drains on shutdown.
//
// Dispatch is work-conserving: a submission that finds an executor idle
// starts at once, so coalescing happens only while a queue exists — the
// only time it saves anything. Under load, N clients each submitting a
// handful of sweep points become one RunCampaignContext call whose points
// share the engine's worker pool, instead of N processes fighting over
// cores. Results are unaffected by batching — each point's metrics depend
// only on its own scenario (per-point DeriveSeed streams), which is also
// what lets the core layer cache them.
package batch

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"cbma/internal/obs"
	"cbma/internal/serve/core"
	"cbma/internal/sim"
)

// Errors returned by Submit and Close.
var (
	ErrClosed    = errors.New("batch: batcher is closed")
	ErrNoPoints  = errors.New("batch: submission has no points")
	ErrDrainTime = errors.New("batch: drain deadline exceeded")
)

// Config parameterizes New.
type Config struct {
	// Service executes flushed batches (cache probe + campaign run).
	// Required.
	Service *core.Service
	// MaxBatch caps the points an executor takes into one batch. A single
	// job larger than the cap still runs, alone. Zero selects 64.
	MaxBatch int
	// Deprecated: ignored; batches dispatch when an executor is idle.
	MaxWait time.Duration
	// Workers is the engine worker budget each executing batch spreads
	// over its points (sim.CampaignOpts.Workers). Zero selects GOMAXPROCS.
	Workers int
	// Parallel is the number of executors, which bounds concurrently
	// executing batches. Zero selects 1: one batch owns the worker budget
	// at a time instead of oversubscribing cores across batches.
	Parallel int
	// Obs, when non-nil, receives batch telemetry: flush counters by why
	// the batch ended (serve.batch.flush.size: capped by MaxBatch;
	// serve.batch.flush.idle: every waiting same-class job was taken),
	// per-batch point-count histogram (serve.batch.points), queue gauge
	// (serve.batch.pending) and job/batch lifecycle events.
	Obs *obs.Observer
}

// Request is one submission: a set of campaign points that must complete
// together.
type Request struct {
	// What labels the submission in errors and telemetry.
	What string
	// Class is the compatibility class. Only submissions of the same class
	// coalesce into a batch, so callers can keep incompatible work
	// (different priorities, different downstream handling) from sharing
	// a run. The empty class is a class.
	Class string
	// Points are the campaign points to run.
	Points []sim.Scenario
}

// Job is an accepted submission making its way through the batcher.
type Job struct {
	id    string
	what  string
	class string
	// ctx travels with the queued submission so a job cancelled while
	// still queued never executes; it is consumed once by runBatch.
	ctx    context.Context //cbma:allow ctxflow queued-submission seam, audited
	points []sim.Scenario

	done    chan struct{}
	results []core.PointResult
	err     error
	batch   int // sequence number of the executing batch
}

// ID returns the batcher-assigned job identifier.
func (j *Job) ID() string { return j.id }

// Done is closed when the job's results are ready (or its context was
// cancelled before execution).
func (j *Job) Done() <-chan struct{} { return j.done }

// Results blocks until the job completes and returns its per-point
// results. The error mirrors core.Service.Run, re-indexed to the job's own
// points; a job cancelled before execution returns its context's error.
func (j *Job) Results() ([]core.PointResult, error) {
	<-j.done
	return j.results, j.err
}

// Batch reports the sequence number of the batch that executed the job
// (zero until done) — observability for tests and the daemon's status API.
func (j *Job) Batch() int {
	select {
	case <-j.done:
		return j.batch
	default:
		return 0
	}
}

// Batcher queues submissions and executes them through a core.Service.
type Batcher struct {
	cfg Config
	// base bounds every batch execution to the batcher's lifetime; Close
	// cancels it to cut off in-flight campaigns at the drain deadline.
	base context.Context //cbma:allow ctxflow batcher-lifetime root, audited seam
	stop context.CancelFunc

	mu      sync.Mutex
	queue   []*Job // accepted, not yet taken, in arrival order
	running int    // executors currently draining the queue
	nextJob int
	nextBat int
	closed  bool

	wg sync.WaitGroup
}

// New starts a batcher. Close must be called to drain it.
func New(cfg Config) *Batcher {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 64
	}
	if cfg.Parallel <= 0 {
		cfg.Parallel = 1
	}
	//cbma:allow ctxflow batcher-lifetime root: New has no caller ctx by design, Close bounds the drain
	base, stop := context.WithCancel(context.Background())
	return &Batcher{cfg: cfg, base: base, stop: stop}
}

// Submit enqueues a request and, when fewer than Parallel executors are
// running, starts one, so a submission that finds an executor idle runs at
// once. The returned Job completes asynchronously; ctx cancels the job (a
// job cancelled while still queued never executes; one already executing
// runs to completion and reports the cancellation). Submission never
// blocks on execution.
func (b *Batcher) Submit(ctx context.Context, req Request) (*Job, error) {
	if len(req.Points) == 0 {
		return nil, ErrNoPoints
	}
	if ctx == nil {
		ctx = context.Background() //cbma:allow ctxflow nil-ctx default for tests; real callers pass one
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, ErrClosed
	}
	b.nextJob++
	j := &Job{
		id:     fmt.Sprintf("job-%d", b.nextJob),
		what:   req.What,
		class:  req.Class,
		ctx:    ctx,
		points: req.Points,
		done:   make(chan struct{}),
	}
	b.queue = append(b.queue, j)
	b.cfg.Obs.Gauge("serve.batch.pending").Add(int64(len(j.points)))
	if b.running < b.cfg.Parallel {
		b.running++
		b.wg.Add(1)
		go b.execute()
	}
	b.mu.Unlock()
	if b.cfg.Obs.EmitsEvents() {
		b.cfg.Obs.Emit("job_submitted", map[string]any{
			"job": j.id, "class": j.class, "points": len(j.points),
		})
	}
	return j, nil
}

// execute is one executor: it runs batches off the queue until the queue
// is empty, then exits. Submit starts executors; Close waits for them.
func (b *Batcher) execute() {
	defer b.wg.Done()
	for {
		b.mu.Lock()
		if len(b.queue) == 0 {
			b.running--
			b.mu.Unlock()
			return
		}
		seq, jobs := b.takeLocked()
		b.mu.Unlock()
		b.runBatch(seq, jobs[0].class, jobs)
	}
}

// takeLocked removes the next batch from the queue: the head job, then
// every queued job of its class in arrival order while the batch stays
// within MaxBatch points. Caller holds b.mu; the queue is non-empty.
func (b *Batcher) takeLocked() (int, []*Job) {
	head := b.queue[0]
	jobs := []*Job{head}
	points := len(head.points)
	why := "idle"
	rest := b.queue[:0]
	for _, j := range b.queue[1:] {
		switch {
		case j.class != head.class:
		case why == "idle" && points+len(j.points) <= b.cfg.MaxBatch:
			jobs = append(jobs, j)
			points += len(j.points)
			continue
		default:
			why = "size" // keeps its class's later jobs behind it, in order
		}
		rest = append(rest, j)
	}
	clear(b.queue[len(rest):])
	b.queue = rest
	b.nextBat++
	seq := b.nextBat
	b.cfg.Obs.Counter("serve.batch.flush." + why).Inc()
	b.cfg.Obs.Gauge("serve.batch.pending").Add(int64(-points))
	b.cfg.Obs.Histogram("serve.batch.points").Observe(int64(points))
	if b.cfg.Obs.EmitsEvents() {
		b.cfg.Obs.Emit("batch_flush", map[string]any{
			"batch": seq, "class": head.class, "why": why,
			"jobs": len(jobs), "points": points,
		})
	}
	return seq, jobs
}

// runBatch executes one taken batch: cancelled jobs are completed without
// running, the rest run as a single campaign sharing the worker budget,
// and results are split back per job.
func (b *Batcher) runBatch(seq int, class string, jobs []*Job) {
	live := jobs[:0:0]
	var points []sim.Scenario
	for _, j := range jobs {
		if err := j.ctx.Err(); err != nil {
			j.finish(seq, nil, err, b.cfg.Obs)
			continue
		}
		live = append(live, j)
		points = append(points, j.points...)
	}
	if len(live) == 0 {
		return
	}
	what := class
	if what == "" {
		what = fmt.Sprintf("batch %d", seq)
	}
	results, err := b.cfg.Service.Run(b.base, points, sim.CampaignOpts{
		Workers: b.cfg.Workers,
		What:    what,
		Obs:     b.cfg.Obs,
	})
	off := 0
	for _, j := range live {
		part := results[off : off+len(j.points)]
		off += len(j.points)
		j.finish(seq, part, jobError(j, part, err), b.cfg.Obs)
	}
}

// jobError derives one job's error from its slice of the batch results
// and the batch-wide error: per-point failures become a job-local
// *sim.CampaignError; a batch-wide cancellation (or the job's own) passes
// through when the job had no point failures of its own.
func jobError(j *Job, part []core.PointResult, batchErr error) error {
	var pes []*sim.PointError
	for i, r := range part {
		if r.Err != "" {
			pes = append(pes, &sim.PointError{What: j.what, Point: i, Err: errors.New(r.Err)})
		}
	}
	if len(pes) > 0 {
		return &sim.CampaignError{Points: pes}
	}
	var cerr *sim.CampaignError
	if errors.As(batchErr, &cerr) {
		return nil // other jobs' failures are not this job's
	}
	if batchErr != nil {
		return batchErr
	}
	return j.ctx.Err()
}

// finish publishes a job's outcome exactly once.
func (j *Job) finish(seq int, results []core.PointResult, err error, o *obs.Observer) {
	j.batch = seq
	j.results = results
	j.err = err
	close(j.done)
	if o.EmitsEvents() {
		f := map[string]any{"job": j.id, "batch": seq}
		if err != nil {
			f["error"] = err.Error()
		}
		cached := 0
		for _, r := range results {
			if r.Cached {
				cached++
			}
		}
		f["cached"] = cached
		o.Emit("job_done", f)
	}
}

// Close drains the batcher: no new submissions are accepted, the executors
// empty the queue, and Close waits — up to ctx — for them to finish. At the
// deadline it cancels the batcher's context: the running batch and any
// still queued complete promptly with Interrupted partials, the way SIGINT
// does for the CLI.
func (b *Batcher) Close(ctx context.Context) error {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()

	done := make(chan struct{})
	go func() {
		b.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		b.stop()
		return nil
	case <-ctx.Done():
		// Cancel in-flight campaigns and wait for them to unwind; they
		// finish promptly with Interrupted partials.
		b.stop()
		<-done
		return ErrDrainTime
	}
}
