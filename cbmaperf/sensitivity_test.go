package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// Environment of the self-test's benchmark processes: the test binary
// re-execs itself as the benchmark command, and these carry the injected
// slowdowns into it. The benchmark binary itself has no such knob.
const (
	envSelfTest        = "CBMAPERF_SELFTEST"
	envSelfTestDiskGet = "CBMAPERF_SELFTEST_DISK_GET"
	envSelfTestSpin    = "CBMAPERF_SELFTEST_WORKER_SPIN"
)

// TestMain lets the test binary stand in for the benchmark: as a shard
// worker (shard.NewSubprocess re-execs the running binary with
// -shard-worker) and as the benchmark command the self-test runs.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == workerFlag {
		os.Exit(workerMain())
	}
	if os.Getenv(envSelfTest) != "" {
		var inj inject
		inj.diskGet, _ = time.ParseDuration(os.Getenv(envSelfTestDiskGet))
		inj.workerSpin, _ = time.ParseDuration(os.Getenv(envSelfTestSpin))
		os.Exit(runWith(os.Args[1:], os.Stdout, os.Stderr, inj))
	}
	os.Exit(m.Run())
}

const (
	selfTestSeconds = "3"
	selfTestSeeds   = 3
)

// sample runs the benchmark command on one workload over selfTestSeeds
// seeds, each in its own process (peak RSS is per process), and returns
// the results ledger.
func sample(t *testing.T, workload string, env ...string) []Record {
	t.Helper()
	out := t.TempDir()
	for seed := 1; seed <= selfTestSeeds; seed++ {
		cmd := exec.Command(os.Args[0], "--workload", workload, "--seed", fmt.Sprint(seed),
			"--seconds", selfTestSeconds, "--trace", "0", "--spec", "../BENCHMARK.json", "--out", out)
		cmd.Env = append(append(os.Environ(), envSelfTest+"=1"), env...)
		cmd.Stderr = io.Discard
		b, err := cmd.Output()
		if err != nil {
			t.Fatalf("%s seed %d: %v\n%s", workload, seed, err, b)
		}
	}
	recs, err := readRecords(filepath.Join(out, "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Failed != 0 {
			t.Fatalf("%s seed %d: %d of %d operations failed", r.Workload, r.Seed, r.Failed, r.Attempted)
		}
	}
	return recs
}

// flagged compares base and injected result sets with the compare step
// and returns "workload/metric" for every metric it judges worse or
// improved. An unresolved verdict — a spread wider than the bound with the
// runs interleaved — claims no change and is not a flag.
func flagged(t *testing.T, base, injected []Record) map[string]string {
	t.Helper()
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := compare(spec, base, injected)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, r := range rows {
		if r.verdict == worse || r.verdict == improved {
			out[r.workload+"/"+r.metric] = fmt.Sprintf("%s (%.4g -> %.4g %s)", r.verdict, median(r.base), median(r.next), r.unit)
		}
	}
	return out
}

// expectFlags checks the injected slowdown is flagged worse on want (if
// any), and that nothing outside want and may is flagged at all.
func expectFlags(t *testing.T, got map[string]string, want string, may ...string) {
	t.Helper()
	t.Logf("flagged: %v", got)
	if v := got[want]; want != "" && !strings.HasPrefix(v, worse) {
		t.Errorf("%s: want worse, got %q", want, v)
	}
	allowed := map[string]bool{want: true}
	for _, m := range may {
		allowed[m] = true
	}
	for k, v := range got {
		if !allowed[k] {
			t.Errorf("%s flagged %s, but the injected slowdown should not move it", k, v)
		}
	}
}

var paperBase []Record

func paperSweepBase(t *testing.T) []Record {
	if paperBase == nil {
		paperBase = sample(t, "paper-sweep")
	}
	return paperBase
}

// TestSensitivityDiskGet: a sleep in the wrapped disk tier's Get must
// move serve-mix's hit latency and leave paper-sweep untouched.
func TestSensitivityDiskGet(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark for about a minute")
	}
	slow := envSelfTestDiskGet + "=10ms"
	got := flagged(t, sample(t, "serve-mix"), sample(t, "serve-mix", slow))
	// Every memory-tier miss pays the sleep, including the probes of
	// misses, and a job completes with its whole batch: all of serve-mix's
	// latency metrics may move, and so do its per-second rates, whose
	// denominator is the time until the last job completes.
	expectFlags(t, got, "serve-mix/hit_p50_ms",
		"serve-mix/submit_p50_ms", "serve-mix/submit_p95_ms", "serve-mix/miss_p50_ms",
		"serve-mix/jobs_per_s", "serve-mix/rounds_per_s")
	expectFlags(t, flagged(t, paperSweepBase(t), sample(t, "paper-sweep", slow)), "")
}

// TestSensitivityWorkerSpin: a CPU spin in the shard worker's Runner must
// move shard-sweep's round rate and leave paper-sweep untouched.
func TestSensitivityWorkerSpin(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark for about a minute")
	}
	spin := envSelfTestSpin + "=10ms"
	got := flagged(t, sample(t, "shard-sweep"), sample(t, "shard-sweep", spin))
	// The spin burns CPU and lengthens every sharded run, including the
	// two-point warm-up inside set-up; resume passes execute nothing.
	expectFlags(t, got, "shard-sweep/rounds_per_s",
		"shard-sweep/cpu_s_per_kround", "shard-sweep/submit_p50_ms", "shard-sweep/submit_p95_ms",
		"shard-sweep/miss_p50_ms", "shard-sweep/jobs_per_s", "shard-sweep/setup_s")
	expectFlags(t, flagged(t, paperSweepBase(t), sample(t, "paper-sweep", spin)), "")
}
