// Package stats holds what cspbench and its comparator, benchdiff, share:
// the result-file schema, the BENCHMARK.json metric table, and the order
// statistics both report.
package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// Value is one metric's result: the median over its repetitions and the
// repetition values themselves.
type Value struct {
	Unit  string    `json:"unit"`
	Value float64   `json:"value"`
	Reps  []float64 `json:"reps,omitempty"`
}

// Header is a result file's provenance.
type Header struct {
	Date       string `json:"date"`
	Commit     string `json:"commit"`
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
	NumCPU     int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	TempFS     string `json:"temp_fs"`
}

// Workload is one workload's results in a result file.
type Workload struct {
	OutputDigest string  `json:"output_digest"`
	FixtureS     float64 `json:"fixture_s"`
	Attempted    int     `json:"attempted"`
	Failed       int     `json:"failed"`
	// Samples is the latency sample count over the repetitions.
	Samples  int              `json:"samples"`
	EndToEnd map[string]Value `json:"end_to_end,omitempty"`
	// HostSpeed is each repetition's host speed by the gauge, 1 being the
	// nominal host, and Measured each timing metric as measured, before
	// EndToEnd scaled it to the nominal host.
	HostSpeed []float64        `json:"host_speed,omitempty"`
	Measured  map[string]Value `json:"measured,omitempty"`
	PerLayer  map[string]Value `json:"per_layer,omitempty"`
	// Classes attributes each fixed request class's untraced latency to
	// the layers (workloads with classes only).
	Classes map[string]ClassRow `json:"classes,omitempty"`
}

// ClassRow is one request class's attribution: its median untraced
// single-client latency, its median self time per layer in the traced
// pass, and the share of the latency those layers account for.
type ClassRow struct {
	UntracedUS float64            `json:"untraced_us"`
	LayersUS   map[string]float64 `json:"layers_us"`
	Attributed float64            `json:"attributed"`
}

// File is a result file: one set of runs.
type File struct {
	Header    Header               `json:"header"`
	Workloads map[string]*Workload `json:"workloads"`
}

// ReadFile decodes a result file.
func ReadFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("decoding result file %s: %w", path, err)
	}
	return &f, nil
}

// Bound is an end-to-end metric's entry in BENCHMARK.json.
type Bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// Bench is the part of BENCHMARK.json the tools read.
type Bench struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []Bound `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// ReadBench decodes BENCHMARK.json.
func ReadBench(path string) (*Bench, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Bench
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	return &b, nil
}

// Median returns the median of xs (0 for none).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Percentile returns the nearest-rank q-quantile of xs (0 for none).
func Percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	return s[max(int(math.Ceil(q*float64(len(s))))-1, 0)]
}

// Quartiles returns the first and third quartiles of xs by the method of
// Python's statistics.quantiles(xs, n=4) (exclusive); with fewer than two
// values both are the single value.
func Quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// Spread returns the interquartile range of xs as a share of its median.
func Spread(xs []float64) float64 {
	med := Median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := Quartiles(xs)
	d := (q3 - q1) / med
	if d < 0 {
		return -d
	}
	return d
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
