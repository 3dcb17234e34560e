package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"sort"
)

// Verdicts of the compare step.
const (
	improved   = "improved"
	worse      = "worse"
	unchanged  = "unchanged"
	unresolved = "unresolved"
	noBound    = "no bound" // per-layer metrics are attribution, not gates
)

// row is one metric of one workload in a comparison.
type row struct {
	workload, metric, unit string
	base, next             []float64
	verdict                string
}

func (r row) ratio() float64 { return ratio(median(r.next), median(r.base)) }

// compareMain is the compare step: it reads two results ledgers (the base
// and the change), refuses them unless every record comes from the same
// machine, and prints each metric's medians, ratio and verdict.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cbmaperf compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition (bounds)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: cbmaperf compare [--spec BENCHMARK.json] BASE.jsonl NEW.jsonl")
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "cbmaperf compare:", err)
		return 1
	}
	base, err := readRecords(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "cbmaperf compare:", err)
		return 1
	}
	next, err := readRecords(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "cbmaperf compare:", err)
		return 1
	}
	rows, err := compare(spec, base, next)
	if err != nil {
		fmt.Fprintln(stderr, "cbmaperf compare:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%-12s %-28s %14s %14s %8s  %s\n", "workload", "metric", "base median", "new median", "new/base", "verdict")
	for _, r := range rows {
		fmt.Fprintf(stdout, "%-12s %-28s %14.4f %14.4f %8.3f  %s (runs %d vs %d, %s)\n",
			r.workload, r.metric, median(r.base), median(r.next), r.ratio(), r.verdict, len(r.base), len(r.next), r.unit)
	}
	return 0
}

// compare pairs the two result sets' runs by workload and trace mode and
// judges every metric. Result sets from different machines, toolchains or
// GOMAXPROCS settings are refused: their differences are not the code's.
func compare(spec *Spec, base, next []Record) ([]row, error) {
	machine := ""
	for _, r := range append(append([]Record(nil), base...), next...) {
		if machine == "" {
			machine = r.Fingerprint.Machine()
		} else if m := r.Fingerprint.Machine(); m != machine {
			return nil, fmt.Errorf("fingerprints differ, refusing to compare: %s vs %s", machine, m)
		}
	}
	type key struct {
		workload string
		traced   bool
	}
	group := func(recs []Record) map[key]map[string][]float64 {
		out := map[key]map[string][]float64{}
		for _, r := range recs {
			k := key{r.Workload, r.Traced}
			if out[k] == nil {
				out[k] = map[string][]float64{}
			}
			for name, v := range r.Metrics {
				if _, na := r.Unavailable[name]; !na {
					out[k][name] = append(out[k][name], v)
				}
			}
		}
		return out
	}
	b, n := group(base), group(next)
	var keys []key
	for k := range b {
		if _, ok := n[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].traced != keys[j].traced {
			return !keys[i].traced
		}
		return keys[i].workload < keys[j].workload
	})
	var rows []row
	for _, k := range keys {
		for _, m := range spec.metrics(k.traced) {
			bv, nv := b[k][m.Name], n[k][m.Name]
			if len(bv) == 0 || len(nv) == 0 {
				continue
			}
			rows = append(rows, row{workload: k.workload, metric: m.Name, unit: m.Unit, base: bv, next: nv, verdict: judge(m, bv, nv)})
		}
	}
	return rows, nil
}

// judge applies a metric's bound: the change is worse (improved) when its
// median is worse (better) than the base median by more than the bound.
// When either side's own quartile spread exceeds the bound the difference
// is unresolved, unless every run of one side beats every run of the other.
func judge(m Metric, base, next []float64) string {
	if m.Bound == 0 {
		return noBound
	}
	bm, nm := median(base), median(next)
	if bm == 0 {
		return unresolved
	}
	sign := 1.0 // positive change = worse
	if m.Better == "higher" {
		sign = -1
	}
	change := sign * (nm - bm) / math.Abs(bm)
	if spread(base) > m.Bound || spread(next) > m.Bound {
		switch {
		case allBeyond(next, base, sign):
			return worse
		case allBeyond(base, next, sign):
			return improved
		}
		return unresolved
	}
	switch {
	case change > m.Bound:
		return worse
	case change < -m.Bound:
		return improved
	}
	return unchanged
}

// spread is the quartile distance as a share of the median.
func spread(xs []float64) float64 {
	md := median(xs)
	if md == 0 {
		return 0
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / math.Abs(md)
}

// allBeyond reports whether every value of a is worse than every value of
// b, worse meaning larger times sign.
func allBeyond(a, b []float64, sign float64) bool {
	for _, x := range a {
		for _, y := range b {
			if sign*x <= sign*y {
				return false
			}
		}
	}
	return true
}
