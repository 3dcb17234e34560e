package main

import (
	"fmt"
	"time"

	"cbma/internal/obs"
	"cbma/internal/sim"
)

// phaseResult is what one timed phase measured. A job is the unit a user
// waits on: a campaign call, a cbmad submission, a sharded run.
type phaseResult struct {
	use      spent
	children bool // CPU and peak RSS include the worker processes
	rounds   int  // rounds executed (sum of Metrics.RoundsExecuted)
	pcRounds int  // Algorithm 1 adjustment rounds (Metrics.PowerControlRounds)
	// busy is the wall time jobs occupied: summed call time for
	// closed-loop workloads, first due time to last completion for
	// serve-mix.
	busy time.Duration
	// latencies, in ms, of every job; hits of jobs answered without
	// executing a round, misses of jobs that executed at least one point.
	latencies, hits, misses []float64
	attempted, failed       int
	digest                  string
	notes                   []string
	workers                 int // engine worker budget of each campaign call
	// Traced phases only: the program's own telemetry of the phase and the
	// workload's layer metrics measured by its wrappers.
	snapshot obs.Snapshot
	layer    map[string]float64
}

// ratio is a/b, or 0 when b is 0 (a phase that executed nothing reports 0
// rather than a non-number).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (p *phaseResult) cpu() time.Duration {
	if p.children {
		return p.use.cpuSelf + p.use.cpuChildren
	}
	return p.use.cpuSelf
}

func (p *phaseResult) cpuPerKround() float64 {
	return ratio(p.cpu().Seconds()*1000, float64(p.rounds))
}

// endToEnd computes every end-to-end metric of an untraced phase.
func endToEnd(p *phaseResult, setupS float64) map[string]float64 {
	rounds := float64(p.rounds)
	return map[string]float64{
		"setup_s":            setupS,
		"rounds_per_s":       ratio(rounds, p.busy.Seconds()),
		"cpu_s_per_kround":   p.cpuPerKround(),
		"alloc_kb_per_round": ratio(float64(p.use.allocBytes)/1024, rounds),
		"peak_rss_mb":        peakRSSMB(p.children),
		"submit_p50_ms":      quantile(p.latencies, 0.50),
		"submit_p95_ms":      quantile(p.latencies, 0.95),
		"hit_p50_ms":         median(p.hits),
		"miss_p50_ms":        median(p.misses),
		"jobs_per_s":         ratio(float64(len(p.latencies)), p.busy.Seconds()),
	}
}

// layerMetrics computes the per-layer metrics of a traced phase: the sim
// and rx layers from the program's existing spans, the kernels from the
// kernel pass, and the serving layers from the workload's wrappers.
func layerMetrics(base, traced *phaseResult, shapes []sim.Scenario) (map[string]float64, map[string]string, error) {
	m := map[string]float64{}
	unavailable := map[string]string{}
	for k, v := range traced.layer {
		m[k] = v
	}
	hists := map[string]obs.HistogramSnapshot{}
	for _, h := range traced.snapshot.Histograms {
		hists[h.Name] = h
	}
	krounds := float64(traced.rounds) / 1000
	perKround := func(hist, metric string) {
		h, ok := hists[hist]
		switch {
		case ok && h.Count > 0:
			m[metric] = ratio(float64(h.Sum)/1e6, krounds)
		case ok:
			unavailable[metric] = "the program records no " + hist + " span on this path (the SIC receiver records only rx.phase.sync)"
		}
	}
	perKround("sim.stage.build_ns", "sim.stage.build.cpu_ms")
	perKround("sim.stage.mix_ns", "sim.stage.mix.cpu_ms")
	perKround("sim.stage.decode_ns", "sim.stage.decode.cpu_ms")
	perKround("rx.phase.sync_ns", "rx.phase.sync.cpu_ms")
	perKround("rx.phase.detect_ns", "rx.phase.detect.cpu_ms")
	perKround("rx.phase.decode_ns", "rx.phase.decode.cpu_ms")
	if _, ok := hists["rx.phase.sync_ns"]; ok {
		m["rx.fft_fallbacks"] = float64(counter(traced.snapshot, "rx.fft_fallbacks"))
	}
	if h, ok := hists["campaign.point_ns"]; ok {
		m["sim.point.p50_ms"] = float64(h.Quantile(0.5)) / 1e6
		m["sim.point.max_ms"] = float64(h.Max) / 1e6
		m["sim.util"] = ratio(float64(h.Sum), float64(traced.busy.Nanoseconds())*float64(traced.workers))
	}
	m["sim.allocs_per_round"] = ratio(float64(traced.use.allocObjs), float64(traced.rounds))
	m["sim.gc_cycles"] = float64(traced.use.gcCycles)
	m["sim.gc_pause_ms"] = ms(traced.use.gcPause)
	if traced.pcRounds > 0 {
		m["mac.pc_rounds"] = float64(traced.pcRounds)
	}
	m["obs.overhead_pct"] = 100 * (ratio(traced.cpuPerKround(), base.cpuPerKround()) - 1)

	engineMS, err := timeNewEngine(shapes)
	if err != nil {
		return nil, nil, err
	}
	m["sim.engine_new.ms"] = engineMS
	kernels, err := kernelPass(shapes)
	if err != nil {
		return nil, nil, err
	}
	for _, k := range kernels {
		m[k.name+".us"] = ratio(float64(k.ns)/1e3, float64(k.calls))
		m[k.name+".allocs"] = ratio(float64(k.allocs), float64(k.calls))
		m[k.name+".mb_s"] = ratio(float64(k.bytes)/1e6, float64(k.ns)/1e9)
		traced.notes = append(traced.notes, fmt.Sprintf("kernel %-22s %9.0f ns/call %6.1f allocs/call %9d bytes/call (computed)",
			k.name, ratio(float64(k.ns), float64(k.calls)), ratio(float64(k.allocs), float64(k.calls)), k.bytes/int64(max(k.calls, 1))))
	}
	if b, d, x := m["sim.stage.build.cpu_ms"], m["sim.stage.decode.cpu_ms"], m["sim.stage.mix.cpu_ms"]; b+d+x > 0 {
		traced.notes = append(traced.notes, fmt.Sprintf("stage shares of summed stage time: build %.0f%%, mix %.0f%%, decode %.0f%%",
			100*b/(b+x+d), 100*x/(b+x+d), 100*d/(b+x+d)))
	}
	return m, unavailable, nil
}

func counter(s obs.Snapshot, name string) int64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// timeNewEngine is the median sim.NewEngine time, in ms, over the
// workload's scenarios.
func timeNewEngine(shapes []sim.Scenario) (float64, error) {
	var times []float64
	for _, scn := range shapes {
		scn.Obs = nil
		t0 := time.Now()
		if _, err := sim.NewEngine(scn); err != nil {
			return 0, fmt.Errorf("sim.NewEngine: %w", err)
		}
		times = append(times, ms(time.Since(t0)))
	}
	return median(times), nil
}
