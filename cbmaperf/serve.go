package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"cbma/internal/obs"
	"cbma/internal/serve/batch"
	"cbma/internal/serve/core"
	"cbma/internal/sim"
)

// The serve-mix traffic: an open loop of seeded Poisson arrivals at one
// fixed rate, well below what the stack sustains, so no backlog grows and
// latency measures the stack rather than a queue. Each job has 1–4 short
// points; a fixed share of points repeat an earlier one (uniformly over
// all earlier points, so repeats hit both cache tiers).
const (
	serveRate        = 40.0 // jobs per second
	serveRepeatShare = 0.6
	servePackets     = 4
	// serveMemEntries is the memory tier's capacity (cbmad's
	// -cache-entries deployment setting), set below the number of distinct
	// points a run requests so that older repeats are served by the disk
	// tier.
	serveMemEntries = 32
)

type serveJob struct {
	due    time.Duration // since the phase start
	points []sim.Scenario
}

// serveSchedule draws the open-loop job list covering d, and the distinct
// points it requests. The job count is fixed at serveRate·d and the due
// times are uniform over d: Poisson arrivals conditioned on their count, so
// every seed offers the same load.
func serveSchedule(seed int64, d time.Duration) ([]serveJob, []sim.Scenario) {
	rng := rand.New(rand.NewSource(sim.DeriveSeed(seed, labelServe)))
	due := make([]time.Duration, int(serveRate*d.Seconds()))
	for i := range due {
		due[i] = time.Duration(rng.Int63n(int64(d)))
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	jobs := make([]serveJob, len(due))
	var pool []sim.Scenario
	for i := range jobs {
		pts := make([]sim.Scenario, 1+rng.Intn(4))
		for j := range pts {
			if len(pool) > 0 && rng.Float64() < serveRepeatShare {
				pts[j] = pool[rng.Intn(len(pool))]
				continue
			}
			pts[j] = smallPoint(rng, sim.DeriveSeed(seed, labelServe, uint64(len(pool))), servePackets)
			pool = append(pool, pts[j])
		}
		jobs[i] = serveJob{due: due[i], points: pts}
	}
	return jobs, pool
}

// serveMix is the cbmad stack in process, wired as cmd/cbmad/main.go wires
// it with its defaults: core.Service over Tiered(MemoryStore, DiskStore)
// in a fresh directory, batch.Batcher with MaxBatch 64, MaxWait 150 ms,
// Parallel 1 and the engine budget at GOMAXPROCS, and an obs.Observer
// attached to both.
type serveMix struct {
	dir     string
	batcher *batch.Batcher
	o       *obs.Observer
	jobs    []serveJob
	pool    []sim.Scenario
	st      *serveTrace // nil when untraced
}

func newServeMix(o opts, tr *tracing) (instance, error) {
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.dir, "serve-")
	if err != nil {
		return nil, err
	}
	s := &serveMix{dir: dir, o: tr.observer()}
	if s.o == nil {
		s.o = obs.New(obs.Config{Clock: obs.SystemClock()})
	}
	s.jobs, s.pool = serveSchedule(o.seed, o.phaseLen())
	mem := core.NewMemoryStore(serveMemEntries)
	disk, err := core.NewDiskStore(dir, s.o)
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("opening disk cache: %w", err)
	}
	var (
		memTier, diskTier core.Store  = mem, disk
		runner            core.Runner = core.CampaignRunner{}
	)
	if o.inject.diskGet > 0 {
		diskTier = slowGet{Store: diskTier, d: o.inject.diskGet}
	}
	var store core.Store
	if tr != nil {
		s.st = &serveTrace{rec: tr.rec, waiting: map[string][]*jobSpan{}, owner: map[string]*jobSpan{}}
		memTier = tierStore{inner: memTier, name: "core.mem", st: s.st}
		diskTier = tierStore{inner: diskTier, name: "core.disk", st: s.st}
		store = jobStore{inner: core.NewTiered(memTier, diskTier), st: s.st}
		runner = tracedRunner{inner: runner, st: s.st}
	} else {
		store = core.NewTiered(memTier, diskTier)
	}
	// Warm-up: a few points outside the job pool through the service
	// directly, so the engine, both tiers and the encoders are warm without
	// seeding the cache with any point the jobs request.
	rng := rand.New(rand.NewSource(sim.DeriveSeed(warmSeed, labelServe, 1<<32)))
	warm := make([]sim.Scenario, 8)
	for i := range warm {
		warm[i] = smallPoint(rng, sim.DeriveSeed(warmSeed, labelServe, 1<<32, uint64(i)), servePackets)
	}
	plain := &core.Service{Runner: core.CampaignRunner{}, Store: core.NewTiered(mem, disk)}
	if _, err := plain.Run(context.Background(), warm, sim.CampaignOpts{}); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	s.batcher = batch.New(batch.Config{
		Service:  &core.Service{Runner: runner, Store: store, Obs: s.o},
		MaxBatch: 64,
		MaxWait:  150 * time.Millisecond,
		Parallel: 1,
		Obs:      s.o,
	})
	return s, nil
}

func (s *serveMix) shapes() []sim.Scenario { return s.pool }

func (s *serveMix) close() {
	// The phase drains the batcher; closing an unused instance drains an
	// empty one.
	_ = s.batcher.Close(context.Background())
	os.RemoveAll(s.dir)
}

// jobOutcome is one job's result as the load generator saw it.
type jobOutcome struct {
	sent, done time.Time
	results    []core.PointResult
	err        error
	span       *jobSpan
}

// phase plays the open-loop schedule drawn at set-up, which covers the
// phase length.
func (s *serveMix) phase(time.Duration) (*phaseResult, error) {
	p := &phaseResult{workers: runtime.GOMAXPROCS(0)}
	out := make([]jobOutcome, len(s.jobs))
	var wg sync.WaitGroup
	use0 := readUsage()
	start := time.Now()
	for i, j := range s.jobs {
		due := start.Add(j.due)
		time.Sleep(time.Until(due))
		js := s.st.expect(due, j.points)
		out[i].sent = time.Now()
		out[i].span = js
		job, err := s.batcher.Submit(context.Background(), batch.Request{What: "serve-mix", Points: j.points})
		if err != nil {
			out[i].err = err
			out[i].done = time.Now()
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i].results, out[i].err = job.Results()
			out[i].done = time.Now()
		}(i)
	}
	wg.Wait()
	p.use = readUsage().since(use0)
	if err := s.batcher.Close(context.Background()); err != nil {
		return nil, err
	}

	var last time.Time
	late := make([]float64, len(s.jobs))
	for i, o := range out {
		due := start.Add(s.jobs[i].due)
		late[i] = msSince(due, o.sent)
		if o.done.After(last) {
			last = o.done
		}
		if o.err != nil || len(o.results) != len(s.jobs[i].points) {
			continue
		}
		lat := msSince(due, o.done)
		p.latencies = append(p.latencies, lat)
		hit := true
		for _, r := range o.results {
			hit = hit && r.Cached
			if !r.Cached {
				p.rounds += r.Metrics.RoundsExecuted
			}
		}
		if hit {
			p.hits = append(p.hits, lat)
		} else {
			p.misses = append(p.misses, lat)
		}
	}
	p.attempted = len(out)
	p.failed, p.digest = checkServe(out)
	p.busy = last.Sub(start)
	p.notes = append(p.notes, fmt.Sprintf("%d jobs offered at %.0f/s, %d distinct points, %d hit jobs, generator late p95 %.2f ms",
		len(s.jobs), serveRate, len(s.pool), len(p.hits), quantile(late, 0.95)))
	if s.st != nil {
		p.snapshot = s.o.Registry().Snapshot()
		p.layer = s.st.layer(out, p.snapshot)
		p.layer["loadgen.late_p95_ms"] = quantile(late, 0.95)
		p.notes = append(p.notes, s.st.hitNote)
	}
	return p, nil
}

// checkServe counts the jobs that failed or got results differing from
// another serving of the same scenario — in particular every hit must
// equal the miss that filled the cache, whichever tier served it — or a
// hit no execution preceded. The digest covers each distinct scenario's
// results in hash order.
func checkServe(out []jobOutcome) (int, string) {
	ref := map[string]string{} // scenario hash → digest of its first execution
	for _, o := range out {
		for _, r := range o.results {
			if _, ok := ref[r.ScenarioHash]; !ok && !r.Cached && r.Err == "" {
				ref[r.ScenarioHash] = digest([]sim.Metrics{r.Metrics})
			}
		}
	}
	failed := 0
	for _, o := range out {
		ok := o.err == nil && len(o.results) > 0
		for _, r := range o.results {
			want, executed := ref[r.ScenarioHash]
			ok = ok && executed && digest([]sim.Metrics{r.Metrics}) == want
		}
		if !ok {
			failed++
		}
	}
	hashes := make([]string, 0, len(ref))
	for h := range ref {
		hashes = append(hashes, h)
	}
	sort.Strings(hashes)
	sum := sha256.New()
	for _, h := range hashes {
		fmt.Fprintf(sum, "%s %s\n", h, ref[h])
	}
	return failed, hex.EncodeToString(sum.Sum(nil))[:16]
}

// slowGet delays every Get of the store it wraps (the sensitivity
// self-test's disk-tier slowdown).
type slowGet struct {
	core.Store
	d time.Duration
}

func (s slowGet) Get(k core.Key) (core.Entry, bool) {
	time.Sleep(s.d)
	return s.Store.Get(k)
}
