package core

import (
	"context"
	"encoding/json"
	"errors"
	"sync/atomic"
	"testing"

	"cbma/internal/fault"
	"cbma/internal/obs"
	"cbma/internal/sim"
)

// countingRunner wraps a Runner and counts executed points, so tests can
// prove a cache hit really skipped execution.
type countingRunner struct {
	inner  Runner
	points atomic.Int64
	calls  atomic.Int64
}

func (c *countingRunner) Run(ctx context.Context, points []sim.Scenario, opts sim.CampaignOpts) ([]sim.Metrics, error) {
	c.calls.Add(1)
	c.points.Add(int64(len(points)))
	return c.inner.Run(ctx, points, opts)
}

func quickScenario(seed int64) sim.Scenario {
	scn := sim.DefaultScenario()
	scn.Seed = seed
	scn.Packets = 20
	return scn
}

func metricsEqual(t *testing.T, a, b sim.Metrics) bool {
	t.Helper()
	ab, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return string(ab) == string(bb)
}

// The serving contract end to end at the core layer: a first run executes
// and caches, a second identical run is served entirely from the store
// (zero executed points) with bit-identical metrics, and the cache-hit
// counter records it.
func TestServiceCachesResults(t *testing.T) {
	runner := &countingRunner{inner: CampaignRunner{}}
	o := obs.New(obs.Config{})
	svc := &Service{Runner: runner, Store: NewMemoryStore(0), Obs: o}
	points := []sim.Scenario{quickScenario(1), quickScenario(2)}

	first, err := svc.Run(context.Background(), points, sim.CampaignOpts{What: "test"})
	if err != nil {
		t.Fatal(err)
	}
	if got := runner.points.Load(); got != 2 {
		t.Fatalf("first run executed %d points, want 2", got)
	}
	for i, r := range first {
		if r.Cached {
			t.Errorf("point %d cached on first run", i)
		}
		if r.ScenarioHash == "" {
			t.Errorf("point %d missing scenario hash", i)
		}
	}

	second, err := svc.Run(context.Background(), points, sim.CampaignOpts{What: "test"})
	if err != nil {
		t.Fatal(err)
	}
	if got := runner.points.Load(); got != 2 {
		t.Errorf("second run executed %d more points, want 0 (cache hit)", got-2)
	}
	for i := range second {
		if !second[i].Cached {
			t.Errorf("point %d not served from cache", i)
		}
		if !metricsEqual(t, first[i].Metrics, second[i].Metrics) {
			t.Errorf("point %d cached metrics differ from computed", i)
		}
	}
	snap := o.Registry().Snapshot()
	if hits := snapshotCounter(snap, "serve.cache.hits"); hits != 2 {
		t.Errorf("serve.cache.hits = %d, want 2", hits)
	}
	if misses := snapshotCounter(snap, "serve.cache.misses"); misses != 2 {
		t.Errorf("serve.cache.misses = %d, want 2", misses)
	}
}

// Cache soundness through the disk backend, against the real engine and
// with an active fault profile: corrupting the stored entry forces a
// recomputation whose metrics are bit-identical to the original, and the
// repaired entry then serves hits again.
func TestServiceDiskCorruptionRecomputed(t *testing.T) {
	dir := t.TempDir()
	o := obs.New(obs.Config{})
	disk, err := NewDiskStore(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	runner := &countingRunner{inner: CampaignRunner{}}
	svc := &Service{Runner: runner, Store: disk, Obs: o}

	scn := quickScenario(7)
	scn.PowerControl = true
	scn.RandomInitialImpedance = true
	scn.Fault = &fault.Profile{AckLossProb: 0.2, EnergyOutageProb: 0.1, MaxRoundRetries: 2}
	points := []sim.Scenario{scn}

	first, err := svc.Run(context.Background(), points, sim.CampaignOpts{})
	if err != nil {
		t.Fatal(err)
	}
	corrupt(t, dir, func(b []byte) []byte { b[len(b)/2] ^= 0x01; return b })

	recomputed, err := svc.Run(context.Background(), points, sim.CampaignOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if recomputed[0].Cached {
		t.Error("corrupted entry served as a cache hit")
	}
	if got := runner.points.Load(); got != 2 {
		t.Errorf("executed %d points, want 2 (original + recompute)", got)
	}
	if !metricsEqual(t, first[0].Metrics, recomputed[0].Metrics) {
		t.Error("recomputed metrics differ from the original — cache soundness violated")
	}
	// The repaired entry serves.
	third, err := svc.Run(context.Background(), points, sim.CampaignOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !third[0].Cached {
		t.Error("repaired entry missed")
	}
	if got := snapshotCounter(o.Registry().Snapshot(), "serve.cache.disk_corrupt"); got != 1 {
		t.Errorf("serve.cache.disk_corrupt = %d, want 1", got)
	}
}

// Failed points must fail in the request's own indexing, healthy points
// must still be served and cached, and zero-metric failures must never be
// cached.
func TestServicePartialFailure(t *testing.T) {
	runner := &countingRunner{inner: failingSeedRunner(3)}
	store := NewMemoryStore(0)
	svc := &Service{Runner: runner, Store: store, Obs: obs.New(obs.Config{})}

	bad := quickScenario(3) // hashes, then fails in the runner
	points := []sim.Scenario{quickScenario(1), bad, quickScenario(2)}

	res, err := svc.Run(context.Background(), points, sim.CampaignOpts{What: "partial"})
	var cerr *sim.CampaignError
	if !errors.As(err, &cerr) {
		t.Fatalf("err = %v, want *sim.CampaignError", err)
	}
	if len(cerr.Points) != 1 || cerr.Points[0].Point != 1 {
		t.Fatalf("campaign error = %+v, want exactly point 1", cerr.Points)
	}
	if res[1].Err == "" {
		t.Error("failed point carries no error")
	}
	if res[0].Err != "" || res[2].Err != "" {
		t.Errorf("healthy points carry errors: %q, %q", res[0].Err, res[2].Err)
	}
	if store.Len() != 2 {
		t.Errorf("store holds %d entries, want 2 (failed point not cached)", store.Len())
	}

	// Resubmission: healthy points hit, only the broken one re-executes.
	runner.points.Store(0)
	res2, err := svc.Run(context.Background(), points, sim.CampaignOpts{What: "partial"})
	if !errors.As(err, &cerr) {
		t.Fatalf("second err = %v, want *sim.CampaignError", err)
	}
	if !res2[0].Cached || !res2[2].Cached {
		t.Error("healthy points not served from cache on resubmission")
	}
	if got := runner.points.Load(); got != 1 {
		t.Errorf("resubmission executed %d points, want 1", got)
	}
}

// An unhashable point fails alone; the rest of the request is served.
func TestServiceUnhashablePoint(t *testing.T) {
	svc := &Service{Runner: CampaignRunner{}, Store: NewMemoryStore(0), Obs: obs.New(obs.Config{})}
	invalid := sim.Scenario{} // zero value: validation fails
	res, err := svc.Run(context.Background(), []sim.Scenario{quickScenario(1), invalid}, sim.CampaignOpts{})
	var cerr *sim.CampaignError
	if !errors.As(err, &cerr) {
		t.Fatalf("err = %v, want *sim.CampaignError", err)
	}
	if cerr.Points[0].Point != 1 {
		t.Errorf("failed point index = %d, want 1", cerr.Points[0].Point)
	}
	if res[0].Err != "" || res[0].Metrics.FramesSent == 0 {
		t.Error("healthy point was not served alongside the unhashable one")
	}
}

// Interrupted partial metrics must not be cached: a later identical
// request must recompute, not serve the truncated run.
func TestServiceInterruptedNotCached(t *testing.T) {
	store := NewMemoryStore(0)
	svc := &Service{
		Runner: runnerFunc(func(ctx context.Context, points []sim.Scenario, opts sim.CampaignOpts) ([]sim.Metrics, error) {
			ms := make([]sim.Metrics, len(points))
			for i := range ms {
				ms[i] = sim.Metrics{NumTags: 2, FramesSent: 5, Interrupted: true}
			}
			return ms, context.Canceled
		}),
		Store: store,
		Obs:   obs.New(obs.Config{}),
	}
	res, err := svc.Run(context.Background(), []sim.Scenario{quickScenario(1)}, sim.CampaignOpts{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res[0].Metrics.FramesSent != 5 {
		t.Error("partial metrics not surfaced")
	}
	if store.Len() != 0 {
		t.Errorf("store holds %d entries, want 0 (interrupted run cached)", store.Len())
	}
}

// failingSeedRunner runs points through the engine but fails every point
// with the given seed the way an execution failure surfaces: zero Metrics
// and a PointError in the runner's own indexing. Every point that hashes
// also builds an engine, so a real scenario cannot provoke this.
func failingSeedRunner(seed int64) Runner {
	return runnerFunc(func(ctx context.Context, points []sim.Scenario, opts sim.CampaignOpts) ([]sim.Metrics, error) {
		ms, err := CampaignRunner{}.Run(ctx, points, opts)
		cerr := &sim.CampaignError{}
		for i, p := range points {
			if p.Seed == seed {
				ms[i] = sim.Metrics{}
				cerr.Points = append(cerr.Points, &sim.PointError{What: opts.What, Point: i, Err: errors.New("injected point failure")})
			}
		}
		if err == nil && len(cerr.Points) > 0 {
			err = cerr
		}
		return ms, err
	})
}

// runnerFunc adapts a function to Runner.
type runnerFunc func(ctx context.Context, points []sim.Scenario, opts sim.CampaignOpts) ([]sim.Metrics, error)

func (f runnerFunc) Run(ctx context.Context, points []sim.Scenario, opts sim.CampaignOpts) ([]sim.Metrics, error) {
	return f(ctx, points, opts)
}
