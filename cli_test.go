package cspsat_test

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// End-to-end tests of the command-line tools: each binary is built once
// into a temporary directory and driven against the specs/ files, checking
// exit codes and the load-bearing lines of output. These are the tests a
// downstream user's shell session relies on.

var cliTools = []string{"cspcheck", "csptrace", "cspsim", "cspproof", "cspprove", "cspeq", "cspi", "cspexperiments", "cspserved"}

// buildTools compiles every cmd/ tool once per test binary run.
func buildTools(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for _, tool := range cliTools {
		out := filepath.Join(dir, tool)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+tool)
		cmd.Env = os.Environ()
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", tool, err, msg)
		}
	}
	return dir
}

func run(t *testing.T, bin string, stdin string, args ...string) (string, int) {
	t.Helper()
	// CSP_TEST_WORKERS reruns the whole CLI suite with the tools' worker
	// pools on (CI does this under -race); the flag is uniform across the
	// tools and must not change any pinned output below.
	if w := os.Getenv("CSP_TEST_WORKERS"); w != "" {
		args = append([]string{"-workers", w}, args...)
	}
	cmd := exec.Command(bin, args...)
	if stdin != "" {
		cmd.Stdin = strings.NewReader(stdin)
	}
	out, err := cmd.CombinedOutput()
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("%s %v: %v\n%s", bin, args, err, out)
		}
		code = ee.ExitCode()
	}
	return string(out), code
}

func TestCLITools(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	dir := buildTools(t)
	bin := func(name string) string { return filepath.Join(dir, name) }

	t.Run("cspcheck protocol", func(t *testing.T) {
		out, code := run(t, bin("cspcheck"), "", "-depth", "7", "specs/protocol.csp")
		if code != 0 || strings.Contains(out, "FAIL") {
			t.Fatalf("code=%d\n%s", code, out)
		}
		if strings.Count(out, "OK") != 4 {
			t.Errorf("want 4 OK lines:\n%s", out)
		}
	})

	t.Run("cspcheck catches violations", func(t *testing.T) {
		spec := filepath.Join(t.TempDir(), "bad.csp")
		if err := os.WriteFile(spec, []byte("p = a!1 -> p\nassert p sat #a <= 1\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		out, code := run(t, bin("cspcheck"), "", "-depth", "4", spec)
		if code != 1 || !strings.Contains(out, "counterexample") {
			t.Fatalf("code=%d\n%s", code, out)
		}
	})

	t.Run("cspcheck deadlocks", func(t *testing.T) {
		out, code := run(t, bin("cspcheck"), "", "-depth", "6", "-deadlocks", "specs/buffers.csp")
		if code != 0 || !strings.Contains(out, "deadlock-free") {
			t.Fatalf("code=%d\n%s", code, out)
		}
	})

	t.Run("cspcheck model axis on nondet.csp", func(t *testing.T) {
		// Traces model: the refusal-level asserts hold vacuously; only the
		// model-pinned refinement assert fails (it is checked under
		// failures whatever -model says), so the exit status is 1.
		out, code := run(t, bin("cspcheck"), "", "specs/nondet.csp")
		if code != 1 {
			t.Fatalf("code=%d\n%s", code, out)
		}
		if !strings.Contains(out, "vacuous under traces model") {
			t.Errorf("vacuity note missing:\n%s", out)
		}
		if strings.Contains(out, "DEADLOCK") {
			t.Errorf("traces model must not see the deadlock:\n%s", out)
		}
		// Failures model: the deadlock hiding in flaky surfaces as an
		// empty acceptance, and the unpinned refinement assert fails too.
		out, code = run(t, bin("cspcheck"), "", "-model", "failures", "specs/nondet.csp")
		if code != 1 {
			t.Fatalf("failures: code=%d\n%s", code, out)
		}
		if !strings.Contains(out, "DEADLOCK after <>") {
			t.Errorf("failures model missed the deadlock:\n%s", out)
		}
		if strings.Contains(out, "FAIL  assert vend sat deadlockfree") {
			t.Errorf("vend should be deadlock-free under failures:\n%s", out)
		}
		// Unknown model names are usage errors.
		if _, code := run(t, bin("cspcheck"), "", "-model", "nope", "specs/nondet.csp"); code != 2 {
			t.Errorf("unknown -model: exit %d, want 2", code)
		}
	})

	t.Run("cspcheck failures model caps hidden chatter", func(t *testing.T) {
		spec := filepath.Join(t.TempDir(), "chatter.csp")
		src := "cnt[n:NAT] = c!n -> cnt[n+1]\nsys = chan c; out!0 -> cnt[0]\nassert sys sat deadlockfree\n"
		if err := os.WriteFile(spec, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		// The guard kills a run that ignores its own -timeout, as a
		// failures walk with an uncapped τ-closure once did.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		out, err := exec.CommandContext(ctx, bin("cspcheck"), "-model", "failures", "-depth", "3", "-timeout", "3s", spec).CombinedOutput()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 || !strings.Contains(string(out), "τ-closure exceeded 65536 states") {
			t.Fatalf("err=%v\n%s", err, out)
		}
	})

	t.Run("cspprove rejects non-trace models", func(t *testing.T) {
		out, code := run(t, bin("cspprove"), "", "-model", "failures", "specs/copier.csp")
		if code != 2 || !strings.Contains(out, "trace-model calculus") {
			t.Fatalf("code=%d\n%s", code, out)
		}
	})

	t.Run("csptrace", func(t *testing.T) {
		out, code := run(t, bin("csptrace"), "", "-depth", "3", "specs/copier.csp", "copier")
		if code != 0 || !strings.Contains(out, "<input.0, wire.0>") {
			t.Fatalf("code=%d\n%s", code, out)
		}
		out, code = run(t, bin("csptrace"), "", "-den", "-depth", "3", "specs/copier.csp", "copier")
		if code != 0 || !strings.Contains(out, "approximation chain stabilised") {
			t.Fatalf("denotational: code=%d\n%s", code, out)
		}
		out, code = run(t, bin("csptrace"), "", "-dot", "-depth", "3", "specs/copier.csp", "copysys")
		if code != 0 || !strings.Contains(out, "digraph lts") {
			t.Fatalf("dot: code=%d\n%s", code, out)
		}
		// -engine denote is the uniform spelling of the deprecated -den.
		out, code = run(t, bin("csptrace"), "", "-engine", "denote", "-depth", "3", "specs/copier.csp", "copier")
		if code != 0 || !strings.Contains(out, "approximation chain stabilised") {
			t.Fatalf("-engine denote: code=%d\n%s", code, out)
		}
		// -model failures lists acceptance families; flaky's deadlock is
		// the empty acceptance {} after the empty trace.
		out, code = run(t, bin("csptrace"), "", "-model", "failures", "-depth", "3", "specs/nondet.csp", "flaky")
		if code != 0 || !strings.Contains(out, "acceptance families") {
			t.Fatalf("-model failures: code=%d\n%s", code, out)
		}
		if !strings.Contains(out, "{}") {
			t.Errorf("flaky's empty acceptance missing:\n%s", out)
		}
	})

	t.Run("cspsim", func(t *testing.T) {
		out, code := run(t, bin("cspsim"), "", "-events", "12", "-seed", "3", "specs/protocol.csp", "protocol")
		if code != 0 || !strings.Contains(out, "monitoring: output <= input") {
			t.Fatalf("code=%d\n%s", code, out)
		}
	})

	t.Run("cspproof", func(t *testing.T) {
		out, code := run(t, bin("cspproof"), "")
		if code != 0 || strings.Count(out, "ok   ") < 10 {
			t.Fatalf("code=%d\n%s", code, out)
		}
		out, code = run(t, bin("cspproof"), "", "-which", "protocol", "-show")
		if code != 0 || !strings.Contains(out, "[recursion") {
			t.Fatalf("show: code=%d\n%s", code, out)
		}
	})

	t.Run("cspprove proves both paper specs", func(t *testing.T) {
		for _, spec := range []string{"specs/copier.csp", "specs/protocol.csp"} {
			out, code := run(t, bin("cspprove"), "", spec)
			if code != 0 || strings.Contains(out, "FAIL") {
				t.Fatalf("%s: code=%d\n%s", spec, code, out)
			}
		}
	})

	t.Run("cspeq distinguishes internal choice", func(t *testing.T) {
		spec := filepath.Join(t.TempDir(), "ic.csp")
		src := "copier = input?x:NAT -> wire!x -> copier\nmaybe = STOP |~| copier\n"
		if err := os.WriteFile(spec, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		out, code := run(t, bin("cspeq"), "", "-depth", "3", "-nat", "2", spec, "maybe", "copier")
		if code != 0 {
			t.Fatalf("code=%d\n%s", code, out)
		}
		if !strings.Contains(out, "trace-equivalent") {
			t.Errorf("trace equivalence missing:\n%s", out)
		}
		if !strings.Contains(out, "maybe ⊑ copier FAILS") {
			t.Errorf("failures distinction missing:\n%s", out)
		}
		if !strings.Contains(out, "maybe can deadlock") {
			t.Errorf("deadlock report missing:\n%s", out)
		}
	})

	t.Run("cspi scripted session", func(t *testing.T) {
		script := "1\n:trace\n:quit\n"
		out, code := run(t, bin("cspi"), script, "specs/copier.csp", "copier")
		if code != 0 || !strings.Contains(out, "input.0") {
			t.Fatalf("code=%d\n%s", code, out)
		}
	})

	t.Run("cspexperiments regenerates the table", func(t *testing.T) {
		out, code := run(t, bin("cspexperiments"), "", "-depth", "6")
		if code != 0 {
			t.Fatalf("code=%d\n%s", code, out)
		}
		for _, id := range []string{"E1 ", "E7 ", "E15", "E18"} {
			if !strings.Contains(out, id) {
				t.Errorf("row %s missing:\n%s", id, out)
			}
		}
		if strings.Contains(out, "FAIL") {
			t.Fatalf("experiment failed:\n%s", out)
		}
		// Single-experiment selection.
		out, code = run(t, bin("cspexperiments"), "", "-only", "E10")
		if code != 0 || strings.Count(out, "\n") != 1 {
			t.Fatalf("-only: code=%d\n%s", code, out)
		}
	})

	t.Run("usage errors exit 2", func(t *testing.T) {
		for _, tool := range cliTools {
			if tool == "cspproof" || tool == "cspexperiments" || tool == "cspserved" {
				continue // take no file arguments; no-args is a valid run
			}
			_, code := run(t, bin(tool), "")
			if code != 2 {
				t.Errorf("%s with no args: exit %d, want 2", tool, code)
			}
		}
	})

	t.Run("stats survive a failing run", func(t *testing.T) {
		// Fail/Fatal used to os.Exit before the -stats report, so the runs
		// that most need cache diagnostics — the failing ones — lost them.
		spec := filepath.Join(t.TempDir(), "bad.csp")
		if err := os.WriteFile(spec, []byte("p = a!1 -> p\nassert p sat #a <= 1\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		out, code := run(t, bin("cspcheck"), "", "-stats", "-depth", "4", spec)
		if code != 1 {
			t.Fatalf("code=%d\n%s", code, out)
		}
		if !strings.Contains(out, "closure caches:") {
			t.Fatalf("-stats report missing from failing run:\n%s", out)
		}
	})

	t.Run("timeout reports the deadline", func(t *testing.T) {
		// The multiplier's data-carrying states defeat the memo; depth 12
		// runs for seconds, so a 100ms budget always expires mid-run — and
		// the error must say so, not just "canceled".
		out, code := run(t, bin("csptrace"), "", "-timeout", "100ms", "-depth", "12", "specs/multiplier.csp", "multiplier")
		if code != 1 {
			t.Fatalf("code=%d\n%s", code, out)
		}
		if !strings.Contains(out, "run deadline exceeded") {
			t.Fatalf("timeout expiry not named in error:\n%s", out)
		}
	})

	t.Run("interrupt reports the signal", func(t *testing.T) {
		cmd := exec.Command(bin("csptrace"), "-depth", "12", "specs/multiplier.csp", "multiplier")
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = &out
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(300 * time.Millisecond) // mid-exploration
		if err := cmd.Process.Signal(os.Interrupt); err != nil {
			t.Fatal(err)
		}
		err := cmd.Wait()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 1 {
			t.Fatalf("err=%v\n%s", err, out.String())
		}
		if !strings.Contains(out.String(), "run interrupted") {
			t.Fatalf("interrupt not named in error:\n%s", out.String())
		}
	})

	t.Run("cspserved boots, serves, drains on SIGTERM", func(t *testing.T) {
		cmd := exec.Command(bin("cspserved"), "-addr", "127.0.0.1:0")
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		defer cmd.Process.Kill()

		// The first stdout line names the bound address.
		sc := bufio.NewScanner(stdout)
		if !sc.Scan() {
			t.Fatalf("no startup line; stderr:\n%s", stderr.String())
		}
		line := sc.Text()
		i := strings.Index(line, "http://")
		j := strings.Index(line, " (")
		if i < 0 || j < i {
			t.Fatalf("unparseable startup line: %q", line)
		}
		base := line[i:j]

		body := `{"source": "p = a!1 -> p\nassert p sat 0 <= #a\n", "depth": 4}`
		resp, err := http.Post(base+"/v1/check", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		payload, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 || !strings.Contains(string(payload), `"ok":true`) {
			t.Fatalf("check: %d %s", resp.StatusCode, payload)
		}

		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		if err := cmd.Wait(); err != nil {
			t.Fatalf("exit after SIGTERM: %v\nstderr:\n%s", err, stderr.String())
		}
		if !strings.Contains(stderr.String(), "drained, exiting") {
			t.Fatalf("drain not reported:\n%s", stderr.String())
		}
	})
}
