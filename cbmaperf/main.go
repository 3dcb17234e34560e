// Command cbmaperf is the repository's benchmark. It runs workloads against
// the program's public functions from one process, checks every result,
// and prints each metric by name with its unit; the last line of standard
// output is one JSON object with the keys correct, attempted, failed and
// metrics.
//
//	cbmaperf --workload paper-sweep --seed 1 --seconds 10 --trace 0
//	cbmaperf --workload all --seed 1 --seconds 10
//	cbmaperf compare BASE.jsonl NEW.jsonl
//
// Run it from the repository root (it reads BENCHMARK.json there); run.sh
// builds and runs it. README.md gives the workloads, the metrics and which
// layer each per-layer metric attributes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"cbma/internal/obs"
	"cbma/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// opts configures one workload run.
type opts struct {
	seed    int64
	seconds time.Duration
	traced  bool
	// dir is the run's scratch directory (disk cache, journals); it is
	// removed when the run ends.
	dir    string
	inject inject
}

// phaseLen is the length of one timed phase: a traced run splits its
// time between an untraced and a traced phase.
func (o opts) phaseLen() time.Duration {
	if o.traced {
		return o.seconds / 2
	}
	return o.seconds
}

// inject plants delays in benchmark-side wrappers. Only the sensitivity
// self-test sets it, to show each metric moves where it should.
type inject struct {
	diskGet    time.Duration // sleep in the disk tier's Get (serve-mix)
	workerSpin time.Duration // CPU spin per point in the shard worker's Runner
}

// tracing is what a traced phase attaches: the program's own observer and
// the benchmark's span recorder. A nil *tracing is an untraced phase.
type tracing struct {
	o   *obs.Observer
	rec *recorder
}

func newTracing() *tracing {
	return &tracing{o: obs.New(obs.Config{Clock: obs.SystemClock()}), rec: newRecorder()}
}

func (t *tracing) observer() *obs.Observer {
	if t == nil {
		return nil
	}
	return t.o
}

func (t *tracing) recorder() *recorder {
	if t == nil {
		return nil
	}
	return t.rec
}

// instance is one set-up workload. phase runs its timed phase once; an
// instance serves one phase, so a traced run sets up a second instance
// whose caches and journals start as cold as the first one's did.
type instance interface {
	phase(d time.Duration) (*phaseResult, error)
	// shapes are the scenarios whose frame shapes the kernel pass and the
	// engine-construction timing measure.
	shapes() []sim.Scenario
	close()
}

type workload struct {
	name  string
	setup func(o opts, tr *tracing) (instance, error)
}

var workloads = []workload{
	{"paper-sweep", func(o opts, tr *tracing) (instance, error) {
		return newCampaign("paper-sweep", o.seed, paperSweepPoints, tr)
	}},
	{"dense-sic", func(o opts, tr *tracing) (instance, error) {
		return newCampaign("dense-sic", o.seed, denseSICPoints, tr)
	}},
	{"serve-mix", newServeMix},
	{"shard-sweep", newShardSweep},
}

func run(args []string, stdout, stderr io.Writer) int {
	return runWith(args, stdout, stderr, inject{})
}

// runWith is run with slowdowns injected into the benchmark's wrappers.
func runWith(args []string, stdout, stderr io.Writer, inj inject) int {
	if len(args) > 0 {
		switch args[0] {
		case workerFlag:
			return workerMain()
		case "compare":
			return compareMain(args[1:], stdout, stderr)
		}
	}
	fs := flag.NewFlagSet("cbmaperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "workload to run, or all")
		seed     = fs.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = fs.Float64("seconds", 10, "length of the timed phase")
		trace    = fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
		specPath = fs.String("spec", "BENCHMARK.json", "benchmark definition (metric names, units, bounds)")
		out      = fs.String("out", filepath.Join(".bench_build", "cbmaperf"), "directory for scratch state, span files and the results ledger")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "cbmaperf:", err)
		return 1
	}
	var selected []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 || *trace < 0 || *trace > 1 || *seconds <= 0 {
		fmt.Fprintf(stderr, "cbmaperf: need --workload (one of %s, or all), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "cbmaperf:", err)
		return 1
	}
	fp := fingerprint()
	fmt.Fprintf(stdout, "machine: %s\ncommit: %s\n", fp.Machine(), fp.Commit)

	traced := *trace == 1
	final := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]any `json:"metrics"`
	}{Metrics: map[string]any{}}
	since := processStart
	for _, w := range selected {
		o := opts{
			seed:    *seed,
			seconds: time.Duration(*seconds * float64(time.Second)),
			traced:  traced,
			dir:     filepath.Join(*out, fmt.Sprintf("run-%s-%d-%d", w.name, *seed, os.Getpid())),
			inject:  inj,
		}
		rec, err := measure(spec, w, o, since)
		os.RemoveAll(o.dir)
		if err != nil {
			fmt.Fprintf(stderr, "cbmaperf: %s: %v\n", w.name, err)
			return 1
		}
		since = time.Time{}
		rec.Fingerprint = fp
		printRecord(stdout, spec, rec)
		if traced {
			if err := writeSpans(stdout, *out, rec); err != nil {
				fmt.Fprintln(stderr, "cbmaperf: writing spans:", err)
				return 1
			}
		}
		if err := appendRecord(filepath.Join(*out, "results.jsonl"), rec.Record); err != nil {
			fmt.Fprintln(stderr, "cbmaperf: writing results ledger:", err)
			return 1
		}
		final.Attempted += rec.Attempted
		final.Failed += rec.Failed
		for _, m := range spec.metrics(traced) {
			key := m.Name
			if len(selected) > 1 {
				key = w.name + "/" + m.Name
			}
			final.Metrics[key] = map[string]any{"value": rec.Metrics[m.Name], "unit": m.Unit}
		}
	}
	final.Correct = final.Failed == 0
	b, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(stderr, "cbmaperf:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// measured is a Record plus what only the printed report and span file
// need.
type measured struct {
	Record
	notes []string
	spans *recorder
}

// measure sets the workload up, runs its timed phase and, for a traced
// run, a second, traced phase on a fresh instance; obs.overhead_pct
// compares the two.
func measure(spec *Spec, w workload, o opts, since time.Time) (measured, error) {
	inst, setupS, err := setUp(w, o, since)
	if err != nil {
		return measured{}, err
	}
	base, err := inst.phase(o.phaseLen())
	inst.close()
	if err != nil {
		return measured{}, err
	}
	rec := measured{Record: Record{
		Workload: w.name, Seed: o.seed, Seconds: o.seconds.Seconds(), Traced: o.traced,
		Attempted: base.attempted, Failed: base.failed, Digest: base.digest,
		Metrics: map[string]float64{}, Unavailable: map[string]string{},
	}, notes: base.notes}
	vals := endToEnd(base, setupS)
	unavailable := map[string]string{}
	if o.traced {
		tr := newTracing()
		inst, err := w.setup(o, tr)
		if err != nil {
			return measured{}, err
		}
		traced, err := inst.phase(o.phaseLen())
		if err == nil {
			vals, unavailable, err = layerMetrics(base, traced, inst.shapes())
		}
		inst.close()
		if err != nil {
			return measured{}, err
		}
		rec.Attempted += traced.attempted
		rec.Failed += traced.failed
		if traced.digest != base.digest {
			// Telemetry must never change results.
			rec.Failed++
			rec.notes = append(rec.notes, fmt.Sprintf("traced digest %s != untraced %s", traced.digest, base.digest))
		}
		for _, n := range traced.notes {
			rec.notes = append(rec.notes, "traced phase: "+n)
		}
		rec.spans = tr.rec
	}
	for _, m := range spec.metrics(o.traced) {
		v, ok := vals[m.Name]
		if why, na := unavailable[m.Name]; na {
			rec.Unavailable[m.Name] = why
		} else if !ok {
			rec.Unavailable[m.Name] = "layer not exercised by this workload"
		}
		rec.Metrics[m.Name] = v
	}
	return rec, nil
}

// setUp builds the workload five times and keeps the last instance for
// the timed phase; setup_s is the median of the five. The first pass is
// timed from since (process start for the first workload of a process),
// so runtime start-up is inside it.
func setUp(w workload, o opts, since time.Time) (instance, float64, error) {
	const passes = 5
	var (
		inst  instance
		times []float64
	)
	for i := 0; i < passes; i++ {
		t0 := time.Now()
		if i == 0 && !since.IsZero() {
			t0 = since
		}
		next, err := w.setup(o, nil)
		if err != nil {
			if inst != nil {
				inst.close()
			}
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if inst != nil {
			inst.close()
		}
		inst = next
	}
	return inst, median(times), nil
}

func printRecord(w io.Writer, spec *Spec, rec measured) {
	mode := "untraced"
	if rec.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (seed %d, %gs, %s)\n", rec.Workload, rec.Seed, rec.Seconds, mode)
	for _, n := range rec.notes {
		fmt.Fprintf(w, "   %s\n", n)
	}
	for _, m := range spec.metrics(rec.Traced) {
		if why, ok := rec.Unavailable[m.Name]; ok {
			fmt.Fprintf(w, "   %-28s %14s %-10s (%s)\n", m.Name, "n/a", m.Unit, why)
			continue
		}
		fmt.Fprintf(w, "   %-28s %14.4f %s\n", m.Name, rec.Metrics[m.Name], m.Unit)
	}
	frac := 0.0
	if rec.Attempted > 0 {
		frac = float64(rec.Failed) / float64(rec.Attempted)
	}
	fmt.Fprintf(w, "   %-28s %14.4f ratio (%d of %d operations)\n", "failed_frac", frac, rec.Failed, rec.Attempted)
	fmt.Fprintf(w, "   digest %s\n", rec.Digest)
}

// writeSpans writes a traced run's spans, one JSON object a line, and
// prints their per-name self-time summary.
func writeSpans(w io.Writer, dir string, rec measured) error {
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-%d.jsonl", rec.Workload, rec.Seed))
	if err := rec.spans.write(path); err != nil {
		return err
	}
	st := selfTimes(rec.spans.all())
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "   spans written to %s\n", path)
	for _, n := range names {
		s := st[n]
		fmt.Fprintf(w, "   span %-24s n=%-6d total=%10.2fms self=%10.2fms\n", n, s.count, float64(s.total)/1e6, float64(s.self)/1e6)
	}
	return nil
}
