package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"time"

	"cbma/internal/serve/core"
	"cbma/internal/sim"
)

// campaign is a direct-campaign workload (paper-sweep, dense-sic): one
// sim.RunCampaignContext call over a point set is one job; the timed phase
// makes calls back to back, call i on variant i of the point set, with the
// worker budget at GOMAXPROCS.
type campaign struct {
	name    string
	points  func(i int) []sim.Scenario
	workers int
	tr      *tracing
}

func newCampaign(name string, seed int64, variant func(seed int64, i int) []sim.Scenario, tr *tracing) (instance, error) {
	c := &campaign{
		name:    name,
		points:  func(i int) []sim.Scenario { return variant(seed, i) },
		workers: runtime.GOMAXPROCS(0),
		tr:      tr,
	}
	// Warm-up pass: every point of a fixed variant at two packets, so code
	// paths, lazily built filter spectra and the heap are warm before
	// timing starts. Power control stays off here: its adjustment loop runs
	// until convergence, whose length varies with the draws.
	warm := variant(warmSeed, 0)
	for i := range warm {
		warm[i].Packets = 2
		warm[i].PowerControl = false
	}
	if _, err := sim.RunCampaignContext(context.Background(), warm, sim.CampaignOpts{Workers: c.workers, What: name + " warm-up"}); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return c, nil
}

func (c *campaign) shapes() []sim.Scenario { return c.points(0) }
func (c *campaign) close()                 {}

func (c *campaign) phase(d time.Duration) (*phaseResult, error) {
	p := &phaseResult{workers: c.workers}
	rec := c.tr.recorder()
	var first []sim.Metrics
	for i := 0; p.busy < d; i++ {
		points := c.points(i)
		trace := rec.newTrace("campaign")
		u0 := readUsage()
		res, err := sim.RunCampaignContext(context.Background(), points, sim.CampaignOpts{
			Workers: c.workers, What: c.name, Obs: c.tr.observer(),
		})
		u := readUsage().since(u0)
		rec.add(0, trace, 0, "sim.RunCampaignContext", u0.at, u0.at.Add(u.wall))
		p.use.add(u)
		p.busy += u.wall
		p.latencies = append(p.latencies, ms(u.wall))
		p.attempted += len(points)
		p.failed += checkCampaign(res, err, nil)
		for _, m := range res {
			p.rounds += m.RoundsExecuted
			p.pcRounds += m.PowerControlRounds
		}
		if i == 0 {
			first = res
		}
		// Outside the measured interval: re-request this sweep from the
		// cache. Probing after every call spreads the hit samples over the
		// whole phase.
		hits, failed, err := hitProbe(points, res, c.workers)
		if err != nil {
			return nil, err
		}
		p.hits = append(p.hits, hits...)
		p.attempted += len(hits) * len(points)
		p.failed += failed
	}
	p.misses = p.latencies
	p.digest = digest(first)
	if c.tr != nil {
		p.snapshot = c.tr.o.Registry().Snapshot()
	}
	// Untimed: a repetition of the first call must reproduce it exactly.
	again, err := sim.RunCampaignContext(context.Background(), c.points(0), sim.CampaignOpts{Workers: c.workers, What: c.name})
	p.attempted += len(again)
	p.failed += checkCampaign(again, err, first)
	return p, nil
}

// checkCampaign counts the points of one campaign call that failed or
// broke a structural invariant and, given a reference, those that differ
// from it.
func checkCampaign(ms []sim.Metrics, err error, ref []sim.Metrics) int {
	failed := 0
	var cerr *sim.CampaignError
	if errors.As(err, &cerr) {
		failed += len(cerr.Points)
	} else if err != nil {
		return len(ms)
	}
	for i, m := range ms {
		switch {
		case m.Interrupted, m.RoundsExecuted != m.RoundsPlanned, m.FER < 0, m.FER > 1:
			failed++
		case ref != nil && (i >= len(ref) || digest([]sim.Metrics{m}) != digest(ref[i:i+1])):
			failed++
		}
	}
	return failed
}

// hitProbeJobs is how many times each probe re-requests the sweep.
const hitProbeJobs = 10

// hitProbe times re-requests of the whole sweep through core.Service with
// every point already in a core.MemoryStore — how cbmad answers a
// resubmitted figure. It returns the latencies and counts points that
// were not served from the store or differ from the executed results.
func hitProbe(points []sim.Scenario, results []sim.Metrics, workers int) ([]float64, int, error) {
	store := core.NewMemoryStore(len(points))
	for i, scn := range points {
		h, err := scn.Hash()
		if err != nil {
			return nil, 0, err
		}
		k := core.Key{ScenarioHash: h, Seed: scn.Seed}
		store.Put(k, core.Entry{Key: k, Metrics: results[i]})
	}
	svc := &core.Service{Runner: refuseRunner{}, Store: store}
	// Start from a collected heap, so the probe's own allocations do not
	// pay for collecting the campaign call's garbage.
	runtime.GC()
	var lat []float64
	failed := 0
	for j := 0; j < hitProbeJobs; j++ {
		t0 := time.Now()
		res, err := svc.Run(context.Background(), points, sim.CampaignOpts{Workers: workers})
		lat = append(lat, msSince(t0, time.Now()))
		if err != nil {
			failed += len(points)
			continue
		}
		for i, r := range res {
			if !r.Cached || digest([]sim.Metrics{r.Metrics}) != digest(results[i:i+1]) {
				failed++
			}
		}
	}
	return lat, failed, nil
}

// refuseRunner fails every execution: a probe whose points are all cached
// must never reach it.
type refuseRunner struct{}

func (refuseRunner) Run(context.Context, []sim.Scenario, sim.CampaignOpts) ([]sim.Metrics, error) {
	return nil, errors.New("cache probe executed a point")
}

// digest is a short content hash of results: their JSON form, which holds
// every exported Metrics field with floats in round-trip precision.
func digest(ms []sim.Metrics) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, m := range ms {
		_ = enc.Encode(m) // writes to a hash cannot fail
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func msSince(t0, t1 time.Time) float64 { return ms(t1.Sub(t0)) }
