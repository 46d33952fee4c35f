package workload

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// GoldenSeed is the seed the committed goldens were blessed at.
const GoldenSeed = 1

// PrefixLen is how many requests per client a golden pins for the
// generated workloads.
const PrefixLen = 32

// Answer is one request's expected outcome: its HTTP status and the
// journal digest of its normalised response body.
type Answer struct {
	Status int    `json:"status"`
	Digest string `json:"digest"`
}

// Golden is a workload's committed expected answers. Class answers hold
// for every seed; the prefix holds for GoldenSeed only.
type Golden struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Classes maps each fixed request class to its answer.
	Classes map[string]Answer `json:"classes,omitempty"`
	// Prefix holds, per client, the answers to the first PrefixLen
	// requests of its stream.
	Prefix [][]Answer `json:"prefix,omitempty"`
}

// GoldenPath returns where the named workload's golden lives under the
// benchmark directory.
func GoldenPath(benchDir, name string) string {
	return filepath.Join(benchDir, "golden", name+".json")
}

// LoadGolden reads a workload's golden.
func LoadGolden(benchDir, name string) (*Golden, error) {
	data, err := os.ReadFile(GoldenPath(benchDir, name))
	if err != nil {
		return nil, err
	}
	var g Golden
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("workload: decoding golden %s: %w", name, err)
	}
	return &g, nil
}

// Save writes the golden, indented, with a trailing newline.
func (g *Golden) Save(benchDir string) error {
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(GoldenPath(benchDir, g.Workload), append(data, '\n'), 0o644)
}
