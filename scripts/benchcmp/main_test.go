package main

import (
	"os"
	"slices"
	"strings"
	"testing"
)

func readFixture(t *testing.T, name string) (results, []string) {
	t.Helper()
	f, err := os.Open("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	res, names, err := parse(f)
	if err != nil {
		t.Fatal(err)
	}
	return res, names
}

// TestCompareFixture compares the two fixture runs: medians per unit,
// old → new, and only the benchmark whose median allocs/op rose flagged.
func TestCompareFixture(t *testing.T) {
	old, order := readFixture(t, "old.txt")
	cur, names := readFixture(t, "new.txt")
	for _, n := range names {
		if !slices.Contains(order, n) {
			order = append(order, n)
		}
	}
	var out strings.Builder
	rose := compare(&out, old, cur, order)
	if !slices.Equal(rose, []string{"BenchmarkE21FrozenBoot/boot-2"}) {
		t.Errorf("allocs/op rose for %v, want only BenchmarkE21FrozenBoot/boot-2", rose)
	}
	got := out.String()
	for _, want := range []string{
		"110000 → 90000 (-18.2%)",   // E11 ns/op medians of three runs
		"5000 → 4000 (-20.0%)",      // E11 B/op
		"40 → 30 (-25.0%)",          // E11 allocs/op
		"2100000 → 2100000 (+0.0%)", // E21 ns/op: the mean of two middle runs
		"1000 → 1001 (+0.1%)",       // E21 allocs/op
		"4100000 → 4000000 (-2.4%)", // E13 reports no allocations
		"- → 300000",                // a benchmark only the new side ran
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}
	if lines := strings.Count(got, "\n"); lines != 5 {
		t.Errorf("%d lines, want a header and four benchmarks:\n%s", lines, got)
	}
}

// TestCompareAgainstHighestOldRun pins the gate's bar: a median inside the
// old runs' own range is a wobble and passes, so benchcmp exits 0, while a
// rise of one object above old runs that all agree is flagged, so it
// exits 1.
func TestCompareAgainstHighestOldRun(t *testing.T) {
	for _, c := range []struct {
		pair string
		want []string
	}{
		{"wobble", nil},
		{"rise", []string{"BenchmarkBufferChain/n=4-2"}},
	} {
		old, order := readFixture(t, c.pair+"_old.txt")
		cur, _ := readFixture(t, c.pair+"_new.txt")
		var out strings.Builder
		if rose := compare(&out, old, cur, order); !slices.Equal(rose, c.want) {
			t.Errorf("%s: allocs/op rose for %v, want %v:\n%s", c.pair, rose, c.want, out.String())
		}
	}
}
