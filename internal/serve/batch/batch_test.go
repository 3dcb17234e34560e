package batch

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cbma/internal/obs"
	"cbma/internal/serve/core"
	"cbma/internal/sim"
)

// fakeRunner returns canned per-point metrics instantly, recording each
// call's point count so tests can assert coalescing.
type fakeRunner struct {
	mu    sync.Mutex
	calls [][]int // per call: seeds of the executed points
	// block, when non-nil, holds every call until it is closed (or the
	// call's context ends); entered, when non-nil, receives a signal as
	// each call starts, so a test knows the executor is busy.
	block   chan struct{}
	entered chan struct{}
	failAt  map[int64]bool // seeds that fail
}

// gatedRunner returns a runner whose calls wait for release.
func gatedRunner() (*fakeRunner, chan struct{}) {
	release := make(chan struct{})
	return &fakeRunner{block: release, entered: make(chan struct{}, 1)}, release
}

func (f *fakeRunner) Run(ctx context.Context, points []sim.Scenario, opts sim.CampaignOpts) ([]sim.Metrics, error) {
	if f.entered != nil {
		select {
		case f.entered <- struct{}{}:
		default:
		}
	}
	if f.block != nil {
		select {
		case <-f.block:
		case <-ctx.Done():
		}
	}
	seeds := make([]int, len(points))
	ms := make([]sim.Metrics, len(points))
	var failed []*sim.PointError
	for i, p := range points {
		seeds[i] = int(p.Seed)
		if f.failAt[p.Seed] {
			failed = append(failed, &sim.PointError{What: opts.What, Point: i, Err: errors.New("injected")})
			continue
		}
		ms[i] = sim.Metrics{NumTags: p.NumTags, FramesSent: int(p.Seed)}
	}
	f.mu.Lock()
	f.calls = append(f.calls, seeds)
	f.mu.Unlock()
	if len(failed) > 0 {
		return ms, &sim.CampaignError{Points: failed}
	}
	if err := ctx.Err(); err != nil {
		for i := range ms {
			ms[i].Interrupted = true
		}
		return ms, err
	}
	return ms, nil
}

func (f *fakeRunner) callCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.calls)
}

func (f *fakeRunner) callSeeds() [][]int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([][]int(nil), f.calls...)
}

func point(seed int64) sim.Scenario {
	scn := sim.DefaultScenario()
	scn.Seed = seed
	scn.Packets = 10
	return scn
}

func points(seeds ...int64) []sim.Scenario {
	out := make([]sim.Scenario, len(seeds))
	for i, seed := range seeds {
		out[i] = point(seed)
	}
	return out
}

// submit enqueues one job and fails the test on refusal.
func submit(t *testing.T, b *Batcher, class string, seeds ...int64) *Job {
	t.Helper()
	j, err := b.Submit(context.Background(), Request{Class: class, Points: points(seeds...)})
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// occupy submits a blocker job and returns once the executor is running
// it, so later submissions queue behind it.
func occupy(t *testing.T, b *Batcher, runner *fakeRunner, class string) *Job {
	t.Helper()
	j := submit(t, b, class, 1)
	<-runner.entered
	return j
}

func newBatcher(t *testing.T, runner core.Runner, cfg Config) *Batcher {
	t.Helper()
	if cfg.Service == nil {
		cfg.Service = &core.Service{Runner: runner, Obs: obs.New(obs.Config{})}
	}
	b := New(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = b.Close(ctx)
	})
	return b
}

// Jobs queued behind a busy executor coalesce once it frees up: an
// executor takes the head job and then every queued job of its class in
// arrival order while the batch stays within MaxBatch points. A job that
// does not fit keeps its class's later jobs behind it, and a single job
// larger than MaxBatch runs alone.
func TestBatcherDrainCoalescesFIFO(t *testing.T) {
	runner, release := gatedRunner()
	o := obs.New(obs.Config{})
	b := newBatcher(t, runner, Config{
		Service:  &core.Service{Runner: runner, Obs: o},
		MaxBatch: 4,
		Obs:      o,
	})
	blocker := occupy(t, b, runner, "a")
	j2 := submit(t, b, "a", 2)
	j3 := submit(t, b, "b", 3)
	j4 := submit(t, b, "a", 4, 5)
	j5 := submit(t, b, "a", 6, 7) // would make five points with j2 and j4
	j6 := submit(t, b, "b", 8)
	j7 := submit(t, b, "a", 9, 10, 11, 12, 13) // larger than MaxBatch
	close(release)

	jobs := []*Job{blocker, j2, j3, j4, j5, j6, j7}
	for i, j := range jobs {
		res, err := j.Results()
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		for k, r := range res {
			if want := int(j.points[k].Seed); r.Metrics.FramesSent != want {
				t.Errorf("job %d point %d: result of seed %d, want %d", i, k, r.Metrics.FramesSent, want)
			}
		}
	}
	want := [][]int{{1}, {2, 4, 5}, {3, 8}, {6, 7}, {9, 10, 11, 12, 13}}
	if got := runner.callSeeds(); !reflect.DeepEqual(got, want) {
		t.Errorf("runner calls = %v, want %v", got, want)
	}
	if j2.Batch() != j4.Batch() || j3.Batch() != j6.Batch() || j2.Batch() == j3.Batch() {
		t.Errorf("batches: j2=%d j4=%d j3=%d j6=%d; want j2,j4 and j3,j6 paired apart",
			j2.Batch(), j4.Batch(), j3.Batch(), j6.Batch())
	}
	snap := o.Registry().Snapshot()
	if got := counterValue(snap, "serve.batch.flush.size"); got != 2 {
		t.Errorf("size flushes = %d, want 2 ({2,4,5} and {6,7})", got)
	}
	if got := counterValue(snap, "serve.batch.flush.idle"); got != 3 {
		t.Errorf("idle flushes = %d, want 3", got)
	}
}

// A lone submission runs as soon as it arrives: MaxWait is ignored, so an
// hour-long setting must not delay it.
func TestBatcherDrainStartsLoneJobAtOnce(t *testing.T) {
	runner := &fakeRunner{}
	b := newBatcher(t, runner, Config{MaxWait: time.Hour})
	j := submit(t, b, "", 1)
	select {
	case <-j.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("lone submission did not start while the executor was idle")
	}
	if _, err := j.Results(); err != nil {
		t.Fatal(err)
	}
}

// Reaching MaxBatch ends a batch and leaves the rest queued for the next.
func TestBatcherFlushesOnSize(t *testing.T) {
	runner, release := gatedRunner()
	o := obs.New(obs.Config{})
	b := newBatcher(t, runner, Config{
		Service:  &core.Service{Runner: runner, Obs: o},
		MaxBatch: 3,
		Obs:      o,
	})
	jobs := []*Job{occupy(t, b, runner, "")}
	for seed := int64(2); seed <= 5; seed++ {
		jobs = append(jobs, submit(t, b, "", seed))
	}
	close(release)
	for _, j := range jobs {
		if _, err := j.Results(); err != nil {
			t.Fatal(err)
		}
	}
	want := [][]int{{1}, {2, 3, 4}, {5}}
	if got := runner.callSeeds(); !reflect.DeepEqual(got, want) {
		t.Errorf("runner calls = %v, want %v", got, want)
	}
	snap := o.Registry().Snapshot()
	if got := counterValue(snap, "serve.batch.flush.size"); got != 1 {
		t.Errorf("size flushes = %d, want 1", got)
	}
	if got := counterValue(snap, "serve.batch.flush.idle"); got != 2 {
		t.Errorf("idle flushes = %d, want 2", got)
	}
}

// Different classes never share a batch.
func TestBatcherClassesPartition(t *testing.T) {
	runner := &fakeRunner{}
	b := newBatcher(t, runner, Config{})
	ja, _ := b.Submit(context.Background(), Request{Class: "a", Points: []sim.Scenario{point(1)}})
	jb, _ := b.Submit(context.Background(), Request{Class: "b", Points: []sim.Scenario{point(2)}})
	if _, err := ja.Results(); err != nil {
		t.Fatal(err)
	}
	if _, err := jb.Results(); err != nil {
		t.Fatal(err)
	}
	if got := runner.callCount(); got != 2 {
		t.Errorf("runner ran %d times, want 2 (one per class)", got)
	}
	if ja.Batch() == jb.Batch() {
		t.Errorf("different classes shared batch %d", ja.Batch())
	}
}

// One job's failing point must not contaminate its batch-mates: the
// healthy job completes clean, the failing one gets a job-local
// CampaignError with job-local indices.
func TestBatcherIsolatesJobFailures(t *testing.T) {
	runner, release := gatedRunner()
	runner.failAt = map[int64]bool{30: true}
	b := newBatcher(t, runner, Config{MaxBatch: 100})

	blocker := occupy(t, b, runner, "")
	healthy, _ := b.Submit(context.Background(), Request{What: "healthy", Points: points(2, 3)})
	failing, _ := b.Submit(context.Background(), Request{What: "failing", Points: points(20, 30)})
	close(release)
	if _, err := blocker.Results(); err != nil {
		t.Fatal(err)
	}

	if _, err := healthy.Results(); err != nil {
		t.Errorf("healthy job failed: %v", err)
	}
	res, err := failing.Results()
	var cerr *sim.CampaignError
	if !errors.As(err, &cerr) {
		t.Fatalf("failing job err = %v, want *sim.CampaignError", err)
	}
	if len(cerr.Points) != 1 || cerr.Points[0].Point != 1 {
		t.Errorf("failure = %+v, want job-local point 1", cerr.Points)
	}
	if res[0].Err != "" || res[1].Err == "" {
		t.Errorf("per-point errors misrouted: %+v", res)
	}
	if healthy.Batch() != failing.Batch() {
		t.Errorf("jobs ran in batches %d and %d, want one shared batch", healthy.Batch(), failing.Batch())
	}
}

// A job cancelled while queued never executes; its batch-mates do.
func TestBatcherCancelledJobSkipped(t *testing.T) {
	runner, release := gatedRunner()
	b := newBatcher(t, runner, Config{})

	// Occupy the single executor so the next job stays queued.
	blocker := occupy(t, b, runner, "")

	ctx, cancel := context.WithCancel(context.Background())
	doomed, err := b.Submit(ctx, Request{Points: []sim.Scenario{point(2)}})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	close(release)

	if _, err := blocker.Results(); err != nil {
		t.Errorf("blocker failed: %v", err)
	}
	if _, err := doomed.Results(); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled job err = %v, want context.Canceled", err)
	}
	// Only the blocker's point may have executed.
	for _, call := range runner.callSeeds() {
		for _, seed := range call {
			if seed == 2 {
				t.Error("cancelled job's point executed anyway")
			}
		}
	}
}

// Close drains: jobs queued behind a busy executor still run, Close waits
// for them, and later submissions are refused.
func TestBatcherCloseDrains(t *testing.T) {
	runner, release := gatedRunner()
	o := obs.New(obs.Config{})
	b := New(Config{
		Service: &core.Service{Runner: runner, Obs: o},
		Obs:     o,
	})
	jobs := []*Job{occupy(t, b, runner, ""), submit(t, b, "", 2), submit(t, b, "", 3)}
	closed := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		closed <- b.Close(ctx)
	}()
	close(release)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		select {
		case <-j.Done():
		default:
			t.Fatalf("Close returned before queued job %d completed", i)
		}
		if _, err := j.Results(); err != nil {
			t.Errorf("drained job %d failed: %v", i, err)
		}
	}
	if jobs[1].Batch() != jobs[2].Batch() {
		t.Errorf("queued jobs ran in batches %d and %d, want one", jobs[1].Batch(), jobs[2].Batch())
	}
	if _, err := b.Submit(context.Background(), Request{Points: points(4)}); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after Close = %v, want ErrClosed", err)
	}
	if got := counterValue(o.Registry().Snapshot(), "serve.batch.flush.idle"); got != 2 {
		t.Errorf("idle flushes = %d, want 2", got)
	}
}

// A drain that overruns its deadline cancels in-flight work and still
// unwinds: jobs complete (with the cancellation surfaced), Close reports
// ErrDrainTime.
func TestBatcherCloseDeadline(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	runner := &fakeRunner{block: release}
	b := New(Config{
		Service: &core.Service{Runner: runner, Obs: obs.New(obs.Config{})},
	})
	j, err := b.Submit(context.Background(), Request{Points: []sim.Scenario{point(1)}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := b.Close(ctx); !errors.Is(err, ErrDrainTime) {
		t.Fatalf("Close = %v, want ErrDrainTime", err)
	}
	if _, err := j.Results(); !errors.Is(err, context.Canceled) {
		t.Errorf("job err after deadline drain = %v, want context.Canceled", err)
	}
}

// An empty submission is refused up front.
func TestBatcherRejectsEmpty(t *testing.T) {
	b := newBatcher(t, &fakeRunner{}, Config{})
	if _, err := b.Submit(context.Background(), Request{}); !errors.Is(err, ErrNoPoints) {
		t.Errorf("Submit(no points) = %v, want ErrNoPoints", err)
	}
}

// Concurrent submitters all complete with their own results — the
// routing survives the race detector.
func TestBatcherConcurrentSubmitters(t *testing.T) {
	runner := &fakeRunner{}
	b := newBatcher(t, runner, Config{MaxBatch: 8, Parallel: 2})
	var wg sync.WaitGroup
	var bad atomic.Int64
	for seed := int64(1); seed <= 40; seed++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			j, err := b.Submit(context.Background(), Request{Points: []sim.Scenario{point(seed)}})
			if err != nil {
				bad.Add(1)
				return
			}
			res, err := j.Results()
			if err != nil || len(res) != 1 || res[0].Metrics.FramesSent != int(seed) {
				bad.Add(1)
			}
		}(seed)
	}
	wg.Wait()
	if n := bad.Load(); n != 0 {
		t.Errorf("%d submitters got wrong results", n)
	}
}

// counterValue digs a counter out of a registry snapshot.
func counterValue(snap obs.Snapshot, name string) int64 {
	for _, c := range snap.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}
