package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"cbma/internal/obs"
	"cbma/internal/serve/core"
	"cbma/internal/sim"
)

// serveTrace attributes the serving stack's store and runner calls to the
// jobs that caused them. The batcher hands a flushed batch to the service
// as one point list, so a call cannot name its job; it is matched
// instead: a store probe of a scenario belongs to the oldest job still
// waiting for its first probe of that scenario. Batches run one at a time
// (Parallel 1), so probes arrive in submission order.
type serveTrace struct {
	rec *recorder

	mu      sync.Mutex
	waiting map[string][]*jobSpan // scenario hash → jobs not yet probed for it
	owner   map[string]*jobSpan   // scenario hash → job of its latest probe
	current *jobSpan              // job of the store call in progress
	parent  int64                 // span of the store call in progress

	hitNote string
}

// jobSpan is one job's root span: due time to results.
type jobSpan struct {
	id         int64
	trace      string
	due        time.Time
	firstProbe time.Time
}

// expect registers a job about to be submitted.
func (st *serveTrace) expect(due time.Time, points []sim.Scenario) *jobSpan {
	if st == nil {
		return nil
	}
	js := &jobSpan{id: st.rec.newID(), trace: st.rec.newTrace("job"), due: due}
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, scn := range points {
		h, err := scn.Hash()
		if err != nil {
			continue // the service fails the point before any probe
		}
		st.waiting[h] = append(st.waiting[h], js)
	}
	return js
}

// claim matches a probe of hash at t to its job.
func (st *serveTrace) claim(hash string, t time.Time) *jobSpan {
	st.mu.Lock()
	defer st.mu.Unlock()
	var js *jobSpan
	if q := st.waiting[hash]; len(q) > 0 {
		js, st.waiting[hash] = q[0], q[1:]
		if js.firstProbe.IsZero() {
			js.firstProbe = t
		}
		st.owner[hash] = js
	} else {
		js = st.owner[hash]
	}
	return js
}

// enter marks the outer store call in progress, whose tier calls nest
// under it.
func (st *serveTrace) enter(js *jobSpan, id int64) {
	st.mu.Lock()
	st.current, st.parent = js, id
	st.mu.Unlock()
}

func (st *serveTrace) inCall() (string, int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.current == nil {
		return "", st.parent
	}
	return st.current.trace, st.parent
}

func (js *jobSpan) ids() (string, int64) {
	if js == nil {
		return "", 0
	}
	return js.trace, js.id
}

// jobStore wraps the tiered store the service sees: each call becomes a
// span under the job that caused it.
type jobStore struct {
	inner core.Store
	st    *serveTrace
}

func (s jobStore) Get(k core.Key) (core.Entry, bool) {
	t0 := time.Now()
	js := s.st.claim(k.ScenarioHash, t0)
	id := s.st.rec.newID()
	s.st.enter(js, id)
	e, ok := s.inner.Get(k)
	trace, parent := js.ids()
	s.st.rec.add(id, trace, parent, "core.store.get", t0, time.Now())
	return e, ok
}

func (s jobStore) Put(k core.Key, e core.Entry) {
	t0 := time.Now()
	s.st.mu.Lock()
	js := s.st.owner[k.ScenarioHash]
	s.st.mu.Unlock()
	id := s.st.rec.newID()
	s.st.enter(js, id)
	s.inner.Put(k, e)
	trace, parent := js.ids()
	s.st.rec.add(id, trace, parent, "core.store.put", t0, time.Now())
}

// tierStore wraps one tier of the tiered store; its spans nest under the
// outer store call.
type tierStore struct {
	inner core.Store
	name  string
	st    *serveTrace
}

func (s tierStore) Get(k core.Key) (core.Entry, bool) {
	t0 := time.Now()
	e, ok := s.inner.Get(k)
	trace, parent := s.st.inCall()
	s.st.rec.add(0, trace, parent, s.name+".get", t0, time.Now())
	return e, ok
}

func (s tierStore) Put(k core.Key, e core.Entry) {
	t0 := time.Now()
	s.inner.Put(k, e)
	trace, parent := s.st.inCall()
	s.st.rec.add(0, trace, parent, s.name+".put", t0, time.Now())
}

// tracedRunner wraps the service's Runner; a run is attributed to the job
// of its first point.
type tracedRunner struct {
	inner core.Runner
	st    *serveTrace
}

func (r tracedRunner) Run(ctx context.Context, points []sim.Scenario, o sim.CampaignOpts) ([]sim.Metrics, error) {
	t0 := time.Now()
	ms, err := r.inner.Run(ctx, points, o)
	var js *jobSpan
	if h, herr := points[0].Hash(); herr == nil {
		r.st.mu.Lock()
		js = r.st.owner[h]
		r.st.mu.Unlock()
	}
	trace, parent := js.ids()
	r.st.rec.add(0, trace, parent, "core.Runner.Run", t0, time.Now())
	return ms, err
}

// layer computes serve-mix's per-layer metrics from the spans, the job
// outcomes and the program's own counters, and records the job spans.
func (st *serveTrace) layer(out []jobOutcome, snap obs.Snapshot) map[string]float64 {
	for _, o := range out {
		if o.span != nil && !o.done.IsZero() {
			st.rec.add(o.span.id, o.span.trace, 0, "job", o.span.due, o.done)
		}
	}
	spans := st.rec.all()
	m := map[string]float64{}
	us := func(name string) float64 { return median(st.rec.durations(name)) / 1e3 }
	m["core.mem.get_us"] = us("core.mem.get")
	m["core.disk.get_us"] = us("core.disk.get")
	m["core.disk.put_us"] = us("core.disk.put")
	m["core.runner.busy_ms"] = sum(st.rec.durations("core.Runner.Run")) / 1e6
	hits, misses := counter(snap, "serve.cache.hits"), counter(snap, "serve.cache.misses")
	m["core.cache.hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	m["batch.flush.timer"] = float64(counter(snap, "serve.batch.flush.timer"))
	m["batch.flush.size"] = float64(counter(snap, "serve.batch.flush.size"))
	for _, h := range snap.Histograms {
		if h.Name == "serve.batch.points" {
			m["batch.points_per_flush"] = ratio(float64(h.Sum), float64(h.Count))
		}
	}

	// Batch wait is submission to the first store probe of the job's
	// points. For hit jobs, latency splits into wait since the due time,
	// then store and runner calls (of any job of the batch) while the job
	// sat in it; what remains is batch and service self time.
	var stage []span
	for _, s := range spans {
		switch s.Name {
		case "core.store.get", "core.store.put", "core.Runner.Run":
			stage = append(stage, s)
		}
	}
	var waits, hitWait, hitStage, hitLat []float64
	for _, o := range out {
		if o.span == nil || o.span.firstProbe.IsZero() || o.err != nil {
			continue
		}
		waits = append(waits, msSince(o.sent, o.span.firstProbe))
		hit := len(o.results) > 0
		for _, r := range o.results {
			hit = hit && r.Cached
		}
		if !hit {
			continue
		}
		lo := o.span.firstProbe.Sub(st.rec.epoch).Nanoseconds()
		hi := o.done.Sub(st.rec.epoch).Nanoseconds()
		hitWait = append(hitWait, msSince(o.span.due, o.span.firstProbe))
		hitStage = append(hitStage, float64(covered(stage, lo, hi))/1e6)
		hitLat = append(hitLat, msSince(o.span.due, o.done))
	}
	m["batch.wait_p50_ms"] = median(waits)
	m["batch.hit_accounted_pct"] = 100 * ratio(sum(hitWait)+sum(hitStage), sum(hitLat))
	st.hitNote = fmt.Sprintf("hit jobs (n=%d): latency p50 %.1f ms = wait p50 %.1f ms + store/runner p50 %.1f ms + batch/service self; wait+store+runner cover %.0f%% of summed hit latency",
		len(hitLat), median(hitLat), median(hitWait), median(hitStage), m["batch.hit_accounted_pct"])
	return m
}
