// Command benchcmp compares two files of `go test -bench -benchmem` output,
// old and new. For every benchmark it prints the median ns/op, B/op and
// allocs/op of each side, old → new, and it exits 1 when the median
// allocs/op of a benchmark both files ran exceeds every old run of it.
// Allocation counts repeat from run to run where timings do not, so they
// are the signal to gate on; the highest old run, not the old median, is
// the bar, because a count can wobble by an object or two between runs of
// one binary. It needs nothing beyond the standard library. Usage:
//
//	benchcmp old.txt new.txt
package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"
)

// units are the per-op measurements benchcmp reports, in column order.
var units = []string{"ns/op", "B/op", "allocs/op"}

// results maps a benchmark's name to each unit's values, one per run.
type results map[string]map[string][]float64

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: benchcmp old.txt new.txt")
		os.Exit(2)
	}
	var sides [2]results
	var order []string
	for i, path := range os.Args[1:] {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchcmp:", err)
			os.Exit(2)
		}
		res, names, err := parse(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchcmp: %s: %v\n", path, err)
			os.Exit(2)
		}
		sides[i] = res
		for _, n := range names {
			if !slices.Contains(order, n) {
				order = append(order, n)
			}
		}
	}
	if rose := compare(os.Stdout, sides[0], sides[1], order); len(rose) > 0 {
		fmt.Printf("\nallocs/op rose: %s\n", strings.Join(rose, ", "))
		os.Exit(1)
	}
}

// parse reads benchmark result lines, returning the values per benchmark
// and the names in first-seen order. Other lines (headers, PASS, ok) are
// skipped.
func parse(r io.Reader) (results, []string, error) {
	res := results{}
	var names []string
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(f[1]); err != nil {
			continue
		}
		name := f[0]
		if res[name] == nil {
			res[name] = map[string][]float64{}
			names = append(names, name)
		}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, nil, fmt.Errorf("%s: value %q: %v", name, f[i], err)
			}
			res[name][f[i+1]] = append(res[name][f[i+1]], v)
		}
	}
	return res, names, sc.Err()
}

// compare writes one row per benchmark and returns the benchmarks whose
// median allocs/op exceeds their highest old run.
func compare(w io.Writer, old, cur results, order []string) (rose []string) {
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\t"+strings.Join(units, "\t"))
	for _, name := range order {
		row := []string{name}
		for _, u := range units {
			o, okOld := median(old[name][u])
			n, okNew := median(cur[name][u])
			row = append(row, cell(o, okOld, n, okNew))
			if u == "allocs/op" && okOld && okNew && n > slices.Max(old[name][u]) {
				rose = append(rose, name)
			}
		}
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	tw.Flush()
	return rose
}

func cell(o float64, okOld bool, n float64, okNew bool) string {
	num := func(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }
	switch {
	case okOld && okNew && o != 0:
		return fmt.Sprintf("%s → %s (%+.1f%%)", num(o), num(n), 100*(n-o)/o)
	case okOld && okNew:
		return num(o) + " → " + num(n)
	case okOld:
		return num(o) + " → -"
	case okNew:
		return "- → " + num(n)
	}
	return "-"
}

// median returns the middle value (the mean of the middle two for an even
// count), and false for no values.
func median(vs []float64) (float64, bool) {
	if len(vs) == 0 {
		return 0, false
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m], true
	}
	return (s[m-1] + s[m]) / 2, true
}
