package cspsat_test

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestExamples builds every program under examples/, runs it from the
// repository root, and compares its stdout byte for byte with the
// output.golden file next to it. The examples use fixed seeds and the
// engines' canonical trace order, so their output changes only when the
// library's observable behaviour does.
func TestExamples(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	mains, err := filepath.Glob(filepath.Join("examples", "*", "main.go"))
	if err != nil || len(mains) == 0 {
		t.Fatalf("no examples found: %v", err)
	}
	bin := t.TempDir()
	for _, main := range mains {
		dir := filepath.Dir(main)
		name := filepath.Base(dir)
		t.Run(name, func(t *testing.T) {
			exe := filepath.Join(bin, name)
			if msg, err := exec.Command("go", "build", "-o", exe, "./"+dir).CombinedOutput(); err != nil {
				t.Fatalf("building %s: %v\n%s", dir, err, msg)
			}
			var stderr bytes.Buffer
			cmd := exec.Command(exe)
			cmd.Stderr = &stderr
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("running %s: %v\n%s", dir, err, stderr.Bytes())
			}
			golden := filepath.Join(dir, "output.golden")
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("stdout differs from %s %s", golden, firstDiff(string(got), string(want)))
			}
		})
	}
}

// firstDiff names the first line where got and want part.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl || i >= len(g) || i >= len(w) {
			return fmt.Sprintf("at line %d:\n got: %s\nwant: %s", i+1, gl, wl)
		}
	}
	return ""
}
