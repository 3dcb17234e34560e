package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// Metric is one metric definition from BENCHMARK.json. Bound is the share
// of the base median by which an end-to-end metric may worsen before the
// compare step calls it a regression; per-layer metrics carry none.
type Metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// Spec is the part of BENCHMARK.json the benchmark reads: the metric
// definitions. BENCHMARK.json is the single source of every metric's name,
// unit, direction and bound.
type Spec struct {
	EndToEnd []Metric `json:"end_to_end"`
	PerLayer []Metric `json:"per_layer"`
}

func loadSpec(path string) (*Spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading benchmark spec: %w", err)
	}
	var s Spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &s, nil
}

// metrics returns the metric set a run reports: the end-to-end metrics
// untraced, the per-layer metrics traced.
func (s *Spec) metrics(traced bool) []Metric {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}

// Fingerprint identifies the machine and toolchain a result set was
// measured on. The compare step accepts only result sets whose Machine
// parts are equal; Commit records which code was measured and is expected
// to differ between the two sides of a comparison.
type Fingerprint struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// Machine is the part of the fingerprint that must match for two result
// sets to be comparable.
func (f Fingerprint) Machine() string {
	return fmt.Sprintf("gomaxprocs=%d num_cpu=%d cpu=%q go=%s", f.GOMAXPROCS, f.NumCPU, f.CPUModel, f.GoVersion)
}

func fingerprint() Fingerprint {
	return Fingerprint{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the measured code: CBMAPERF_COMMIT when the caller knows it
// (a checkout without git metadata), else the HEAD of a git repository
// rooted at the working directory, else "unknown". Git is not asked to
// search parent directories, which may belong to another repository.
func commit() string {
	if c := os.Getenv("CBMAPERF_COMMIT"); c != "" {
		return c
	}
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// Record is one workload run as the results ledger stores it: every metric
// the run measured, the fingerprint, and the results digest.
type Record struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Seconds     float64            `json:"seconds"`
	Traced      bool               `json:"traced"`
	Fingerprint Fingerprint        `json:"fingerprint"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Digest      string             `json:"digest"`
	Metrics     map[string]float64 `json:"metrics"`
	// Unavailable names metrics that do not apply to this workload (they
	// read 0) with the reason.
	Unavailable map[string]string `json:"unavailable,omitempty"`
}

func appendRecord(path string, r Record) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	b, err := json.Marshal(r)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecords(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []Record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 4<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var r Record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}
