// Command benchdiff compares two sets of cspbench result files. For every
// end-to-end metric and workload it prints each side's median and
// quartiles and a verdict against the metric's bound from BENCHMARK.json:
//
//	better     the new median is better by more than the bound
//	worse      the new median is worse by more than the bound (a regression)
//	unchanged  the medians differ by no more than the bound, or by no more
//	           than the metric's absolute floor (setup_s 10 ms, live_heap_mb
//	           1 MiB)
//	unresolved a side's spread (interquartile range over median) exceeds the
//	           bound, and not every new value beats every old one
//
// It exits 1 on any regression, on any allocs_per_req increase beyond its
// bound (whatever the spread), on any failed request, on output digests
// that disagree for the same seed, and on a named claim that fails the
// ≥9/10-pairs rule. Usage:
//
//	benchdiff [-bench BENCHMARK.json] [-claim workload/metric] OLD NEW
//
// OLD and NEW are each a result file, a comma-separated list of them, or a
// directory of them. With one file a side's values are its repetitions;
// with several, each file's median.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"cspsat/bench/internal/stats"
)

func main() {
	benchPath := flag.String("bench", "BENCHMARK.json", "the benchmark definition holding the bounds")
	claim := flag.String("claim", "", "workload/metric the new side claims to improve (≥9 of 10 pairs must win)")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-bench BENCHMARK.json] [-claim workload/metric] OLD NEW")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	bench, err := stats.ReadBench(*benchPath)
	if err != nil {
		fatal(err)
	}
	old, err := readSet(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	cur, err := readSet(flag.Arg(1))
	if err != nil {
		fatal(err)
	}
	bad := compare(bench, old, cur)
	if *claim != "" && !checkClaim(bench, old, cur, *claim) {
		bad = true
	}
	if bad {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(2)
}

// readSet loads a file, a comma-separated list of files, or every .json
// file of a directory.
func readSet(arg string) ([]*stats.File, error) {
	var paths []string
	for _, p := range strings.Split(arg, ",") {
		if fi, err := os.Stat(p); err == nil && fi.IsDir() {
			matches, err := filepath.Glob(filepath.Join(p, "*.json"))
			if err != nil {
				return nil, err
			}
			sort.Strings(matches)
			paths = append(paths, matches...)
			continue
		}
		paths = append(paths, p)
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no result files in %s", arg)
	}
	var files []*stats.File
	for _, p := range paths {
		f, err := stats.ReadFile(p)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// values collects one side's values of a metric: the repetitions of a
// single file, or each file's median.
func values(files []*stats.File, workload, metric string, perLayer bool) []float64 {
	var out []float64
	for _, f := range files {
		w, ok := f.Workloads[workload]
		if !ok {
			continue
		}
		m := w.EndToEnd
		if perLayer {
			m = w.PerLayer
		}
		v, ok := m[metric]
		if !ok {
			continue
		}
		if len(files) == 1 && len(v.Reps) > 0 {
			return v.Reps
		}
		out = append(out, v.Value)
	}
	return out
}

// workloads lists the workloads both sides report, in BENCHMARK.json order.
func workloads(bench *stats.Bench, old, cur []*stats.File) []string {
	var out []string
	for _, w := range bench.Workloads {
		if has(old, w.Name) && has(cur, w.Name) {
			out = append(out, w.Name)
		}
	}
	return out
}

func has(files []*stats.File, name string) bool {
	for _, f := range files {
		if _, ok := f.Workloads[name]; ok {
			return true
		}
	}
	return false
}

// floors are absolute changes too small to count, whatever their share of
// the median: a few milliseconds of a cheap set-up, or a fraction of a MiB
// of a small live heap, are scheduling and allocator noise.
var floors = map[string]float64{"setup_s": 0.010, "live_heap_mb": 1}

// worseBy returns how much worse c is than a as a share of a, by the
// metric's direction (negative: better).
func worseBy(b stats.Bound, a, c float64) float64 {
	if a == 0 {
		return 0
	}
	d := (c - a) / a
	if b.Better == "higher" {
		return -d
	}
	return d
}

// compare prints the verdict table and reports whether anything regressed.
func compare(bench *stats.Bench, old, cur []*stats.File) bool {
	bad := false
	fmt.Printf("%-15s %-15s %13s %23s %13s %23s %8s  %s\n", "workload", "metric", "old median", "old q1..q3", "new median", "new q1..q3", "worse by", "verdict")
	for _, w := range workloads(bench, old, cur) {
		for _, b := range bench.EndToEnd {
			ov, nv := values(old, w, b.Name, false), values(cur, w, b.Name, false)
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			om, nm := stats.Median(ov), stats.Median(nv)
			oq1, oq3 := stats.Quartiles(ov)
			nq1, nq3 := stats.Quartiles(nv)
			change := worseBy(b, om, nm)
			verdict := "unchanged"
			switch {
			case math.Abs(nm-om) <= floors[b.Name]:
			case stats.Spread(ov) > b.Bound || stats.Spread(nv) > b.Bound:
				verdict = "unresolved"
				if allBetter(b, ov, nv) {
					verdict = "better"
				}
			case change > b.Bound:
				verdict = "worse"
			case change < -b.Bound:
				verdict = "better"
			}
			if b.Name == "allocs_per_req" && change > b.Bound && verdict != "worse" {
				verdict += ", allocs up"
			}
			if verdict == "worse" || strings.HasSuffix(verdict, "allocs up") {
				bad = true
			}
			fmt.Printf("%-15s %-15s %13.4g %11.4g..%-11.4g %13.4g %11.4g..%-11.4g %+7.1f%%  %s (bound %g%%)\n",
				w, b.Name, om, oq1, oq3, nm, nq1, nq3, 100*change, verdict, 100*b.Bound)
		}
	}
	for _, w := range workloads(bench, old, cur) {
		header := fmt.Sprintf("\n%s per layer (no bound)\n", w)
		for _, m := range bench.PerLayer {
			ov, nv := values(old, w, m.Name, true), values(cur, w, m.Name, true)
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			fmt.Print(header)
			header = ""
			fmt.Printf("  %-32s %14.4f -> %14.4f %s\n", m.Name, stats.Median(ov), stats.Median(nv), m.Unit)
		}
	}
	for _, side := range []struct {
		name  string
		files []*stats.File
	}{{"old", old}, {"new", cur}} {
		for _, f := range side.files {
			for w, r := range f.Workloads {
				if r.Failed > 0 {
					fmt.Printf("\n%s set, seed %d, %s: %d of %d requests failed\n", side.name, f.Header.Seed, w, r.Failed, r.Attempted)
					bad = true
				}
			}
		}
	}
	digests := map[string]string{}
	for _, f := range append(append([]*stats.File{}, old...), cur...) {
		for w, r := range f.Workloads {
			if r.OutputDigest == "" {
				continue
			}
			key := fmt.Sprintf("%s seed %d, %ds/run", w, f.Header.Seed, f.Header.Seconds)
			if d, ok := digests[key]; ok && d != r.OutputDigest {
				fmt.Printf("\n%s: output digests differ (%.16s vs %.16s)\n", key, d, r.OutputDigest)
				bad = true
			}
			digests[key] = r.OutputDigest
		}
	}
	return bad
}

// allBetter reports whether every new value beats every old one.
func allBetter(b stats.Bound, ov, nv []float64) bool {
	for _, o := range ov {
		for _, n := range nv {
			if worseBy(b, o, n) >= 0 {
				return false
			}
		}
	}
	return true
}

// checkClaim applies the ≥9/10-pairs rule to workload/metric: pairing the
// i-th old and new values, the new side must win at least nine tenths of
// the pairs (ties count for neither), and the medians must differ by more
// than the old side's interquartile range.
func checkClaim(bench *stats.Bench, old, cur []*stats.File, claim string) bool {
	w, metric, ok := strings.Cut(claim, "/")
	var bound *stats.Bound
	for i := range bench.EndToEnd {
		if bench.EndToEnd[i].Name == metric {
			bound = &bench.EndToEnd[i]
		}
	}
	if !ok || bound == nil {
		fmt.Printf("\nclaim %s: not an end-to-end workload/metric\n", claim)
		return false
	}
	ov, nv := values(old, w, metric, false), values(cur, w, metric, false)
	pairs := min(len(ov), len(nv))
	if pairs < 10 {
		fmt.Printf("\nclaim %s: %d pairs, the rule needs at least 10\n", claim, pairs)
		return false
	}
	wins := 0
	for i := 0; i < pairs; i++ {
		if worseBy(*bound, ov[i], nv[i]) < 0 {
			wins++
		}
	}
	q1, q3 := stats.Quartiles(ov)
	diff := stats.Median(nv) - stats.Median(ov)
	if diff < 0 {
		diff = -diff
	}
	met := wins*10 >= pairs*9 && diff > q3-q1
	verdict := "not met"
	if met {
		verdict = "met"
	}
	fmt.Printf("\nclaim %s: new wins %d of %d pairs, medians differ by %.4g against an old interquartile range of %.4g: %s\n",
		claim, wins, pairs, diff, q3-q1, verdict)
	return met
}
