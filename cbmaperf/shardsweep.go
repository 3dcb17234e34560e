package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cbma/internal/serve/shard"
	"cbma/internal/sim"
)

// workerFlag is the argument shard.NewSubprocess appends when it re-execs
// this binary as a shard worker.
const workerFlag = "-shard-worker"

// Environment of the worker processes. The coordinator side sets them
// through shard.SubprocessConfig.Env.
const (
	// envWorkerSpin is a Go duration the worker's Runner spins the CPU
	// for before each point (the sensitivity self-test's slowdown).
	envWorkerSpin = "CBMAPERF_WORKER_SPIN"
	// envWorkerStats names a directory where each worker writes its
	// compute time and wire byte counts when it exits (traced runs).
	envWorkerStats = "CBMAPERF_WORKER_STATS"
)

// shardSweep runs many small points through shard.New with the Subprocess
// transport, two shards and a fresh journal directory per run. Workers are
// this binary in worker mode, as cbmasim and cbmad re-exec themselves.
type shardSweep struct {
	dir      string
	seed     int64
	workers  int
	tr       *tracing
	t        *shardTransport
	statsDir string
	runs     int
}

func newShardSweep(o opts, tr *tracing) (instance, error) {
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.dir, "shard-")
	if err != nil {
		return nil, err
	}
	s := &shardSweep{dir: dir, seed: o.seed, workers: runtime.GOMAXPROCS(0)}
	var env []string
	if o.inject.workerSpin > 0 {
		env = append(env, envWorkerSpin+"="+o.inject.workerSpin.String())
	}
	if tr != nil {
		s.statsDir = filepath.Join(dir, "worker-stats")
		if err := os.Mkdir(s.statsDir, 0o755); err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		env = append(env, envWorkerStats+"="+s.statsDir)
	}
	sub, err := shard.NewSubprocess(shard.SubprocessConfig{Env: env})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s.t = &shardTransport{inner: sub}
	// Warm-up, untraced: one two-point sharded run, so both worker
	// processes have been spawned once and the coordinator's paths are
	// warm.
	warm := shardSweepPoints(warmSeed, 0)[:2]
	for i := range warm {
		warm[i].Packets = 2
	}
	if _, err := s.run(warm, "warm-up"); err != nil {
		s.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	s.t.execs.Store(0)
	if tr != nil {
		// Drop the warm-up workers' reports.
		if err := os.RemoveAll(s.statsDir); err != nil {
			s.close()
			return nil, err
		}
		if err := os.Mkdir(s.statsDir, 0o755); err != nil {
			s.close()
			return nil, err
		}
		s.tr, s.t.rec = tr, tr.rec
	}
	return s, nil
}

func (s *shardSweep) shapes() []sim.Scenario { return shardSweepPoints(s.seed, 0) }
func (s *shardSweep) close()                 { os.RemoveAll(s.dir) }

// run executes points through a fresh coordinator journaling to the named
// directory (a resumed run names an existing one).
func (s *shardSweep) run(points []sim.Scenario, journal string) ([]sim.Metrics, error) {
	c := shard.New(shard.Config{
		Shards:     2,
		Transport:  s.t,
		JournalDir: filepath.Join(s.dir, journal),
		Obs:        s.tr.observer(),
	})
	return c.Run(context.Background(), points, sim.CampaignOpts{Workers: s.workers, What: "shard-sweep"})
}

// phase runs sharded campaigns back to back, run i on variant i of the
// point set, each journaling to a fresh directory.
func (s *shardSweep) phase(d time.Duration) (*phaseResult, error) {
	p := &phaseResult{workers: s.workers, children: true}
	var (
		first, last []sim.Metrics
		points      []sim.Scenario
		journal     string
	)
	for i := 0; p.busy < d; i++ {
		if journal != "" {
			os.RemoveAll(filepath.Join(s.dir, journal))
		}
		s.runs++
		journal = fmt.Sprintf("journal-%d", s.runs)
		points = shardSweepPoints(s.seed, i)
		trace := s.tr.recorder().newTrace("sharded")
		s.t.begin(trace)
		u0 := readUsage()
		res, err := s.run(points, journal)
		u := readUsage().since(u0)
		s.t.rec.add(s.t.runSpan, trace, 0, "shard.Coordinator.Run", u0.at, u0.at.Add(u.wall))
		p.use.add(u)
		p.busy += u.wall
		p.latencies = append(p.latencies, ms(u.wall))
		p.attempted += len(points)
		p.failed += checkCampaign(res, err, nil)
		for _, m := range res {
			p.rounds += m.RoundsExecuted
		}
		if i == 0 {
			first = res
		}
		last = res
		// Outside the measured interval: resume passes against this run's
		// full journal, which must be served wholly from the journal with
		// zero Transport.Execute calls. They are this workload's hits.
		for k := 0; k < resumePasses; k++ {
			before := s.t.execs.Load()
			t0 := time.Now()
			again, err := s.run(points, journal)
			p.hits = append(p.hits, msSince(t0, time.Now()))
			p.attempted++
			if n := s.t.execs.Load() - before; err != nil || n != 0 || digest(again) != digest(res) {
				p.failed++
				p.notes = append(p.notes, fmt.Sprintf("resume of run %d: err %v, %d Execute calls", i, err, n))
			}
		}
	}
	p.misses = p.latencies
	p.digest = digest(first)
	if s.tr != nil {
		p.snapshot = s.tr.o.Registry().Snapshot().Merge(s.tr.o.Shards().Merged())
		p.layer = s.t.layer(s.runs)
		if err := workerStats(s.statsDir, p.layer); err != nil {
			return nil, err
		}
	}
	// Untimed: the last run's merged results must equal a direct
	// single-process campaign of the same points, bit for bit.
	direct, err := sim.RunCampaignContext(context.Background(), points, sim.CampaignOpts{Workers: s.workers})
	p.attempted += len(points)
	p.failed += checkCampaign(direct, err, last)
	return p, nil
}

// resumePasses is how many times each run is resumed from its journal.
const resumePasses = 2

// shardTransport wraps the coordinator's transport: it counts Execute
// calls always (the resume check needs them) and, traced, times each
// attempt and its first delivered result.
type shardTransport struct {
	inner shard.Transport
	execs atomic.Int64
	rec   *recorder

	mu      sync.Mutex
	trace   string
	runSpan int64
	exec    []float64 // ms per Execute
	first   []float64 // ms from Execute to its first delivered result
}

// begin opens a coordinator run's trace; its attempts become its children.
func (t *shardTransport) begin(trace string) {
	t.mu.Lock()
	t.trace, t.runSpan = trace, t.rec.newID()
	t.mu.Unlock()
}

func (t *shardTransport) Execute(ctx context.Context, a shard.Assignment, sink shard.Sink) error {
	t.execs.Add(1)
	if t.rec == nil {
		return t.inner.Execute(ctx, a, sink)
	}
	fs := &firstSink{Sink: sink}
	t0 := time.Now()
	err := t.inner.Execute(ctx, a, fs)
	t1 := time.Now()
	t.mu.Lock()
	trace, parent := t.trace, t.runSpan
	t.exec = append(t.exec, msSince(t0, t1))
	if !fs.first.IsZero() {
		t.first = append(t.first, msSince(t0, fs.first))
	}
	t.mu.Unlock()
	t.rec.add(0, trace, parent, "shard.Transport.Execute", t0, t1)
	return err
}

func (t *shardTransport) layer(runs int) map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return map[string]float64{
		"shard.execute.p50_ms":  median(t.exec),
		"shard.execute.max_ms":  quantile(t.exec, 1),
		"shard.first_result_ms": median(t.first),
		"shard.attempts":        ratio(float64(t.execs.Load()), float64(runs)),
	}
}

// firstSink notes when an attempt's first result arrives. Deliver is only
// called from the goroutine running Execute (shard.Sink's contract).
type firstSink struct {
	shard.Sink
	first time.Time
}

func (f *firstSink) Deliver(r shard.PointResult) error {
	if f.first.IsZero() {
		f.first = time.Now()
	}
	return f.Sink.Deliver(r)
}

// workerReport is what a worker process writes to envWorkerStats.
type workerReport struct {
	ComputeNs int64 `json:"compute_ns"`
	Points    int   `json:"points"`
	BytesIn   int64 `json:"bytes_in"`
	BytesOut  int64 `json:"bytes_out"`
}

// workerStats folds the worker reports into the shard layer metrics.
func workerStats(dir string, m map[string]float64) error {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return err
	}
	var tot workerReport
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		var r workerReport
		if err := json.Unmarshal(b, &r); err != nil {
			return fmt.Errorf("worker report %s: %w", f, err)
		}
		tot.ComputeNs += r.ComputeNs
		tot.Points += r.Points
		tot.BytesIn += r.BytesIn
		tot.BytesOut += r.BytesOut
	}
	m["shard.worker.compute_ms"] = ratio(float64(tot.ComputeNs)/1e6, float64(tot.Points))
	m["shard.wire_kb_per_point"] = ratio(float64(tot.BytesIn+tot.BytesOut)/1024, float64(tot.Points))
	return nil
}

// workerMain is the worker mode: serve one assignment on stdin/stdout
// through shard.ServeWorker with a timing Runner, as cbmasim and cbmad
// workers do with the production one.
func workerMain() int {
	in := &countingReader{r: os.Stdin}
	out := &countingWriter{w: os.Stdout}
	r := &workerRunner{}
	if v := os.Getenv(envWorkerSpin); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cbmaperf worker:", err)
			return 2
		}
		r.spin = d
	}
	err := shard.ServeWorker(context.Background(), in, out, r)
	if dir := os.Getenv(envWorkerStats); dir != "" {
		rep := workerReport{ComputeNs: r.compute.Nanoseconds(), Points: r.points, BytesIn: in.n.Load(), BytesOut: out.n.Load()}
		b, _ := json.Marshal(rep) // a struct of numbers always encodes
		if werr := os.WriteFile(filepath.Join(dir, fmt.Sprintf("worker-%d.json", os.Getpid())), b, 0o644); werr != nil && err == nil {
			err = werr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cbmaperf worker:", err)
		return 1
	}
	return 0
}

// workerRunner is the worker's core.Runner: the production engine, timed.
// ServeWorker runs points one at a time, so no field is shared.
type workerRunner struct {
	spin    time.Duration
	compute time.Duration
	points  int
}

func (w *workerRunner) Run(ctx context.Context, points []sim.Scenario, o sim.CampaignOpts) ([]sim.Metrics, error) {
	t0 := time.Now()
	for w.spin > 0 && time.Since(t0) < w.spin {
	}
	ms, err := sim.RunCampaignContext(ctx, points, o)
	w.compute += time.Since(t0)
	w.points += len(points)
	return ms, err
}

type countingReader struct {
	r io.Reader
	n atomic.Int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

type countingWriter struct {
	w io.Writer
	n atomic.Int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n.Add(int64(n))
	return n, err
}
