// Command cspbench is the end-to-end cspserved benchmark. It boots the
// real internal/server with production defaults behind a loopback
// listener, replays generated request bytes from a closed loop of two
// clients, checks every answer, and reports end-to-end metrics from
// untraced repetitions and a per-layer breakdown from a traced pass.
//
// One workload, as BENCHMARK.json's command runs it (the last stdout line
// is the result JSON):
//
//	cspbench -workload hot-mix -seed 1 -seconds 15 -trace 0   # end-to-end
//	cspbench -workload hot-mix -seed 1 -seconds 15 -trace 1   # per-layer
//
// A full set — every workload, both kinds of run, a result file under
// bench/out for benchdiff:
//
//	cspbench -seed 1
//
// -bless rewrites the goldens under bench/golden (seed 1 only). Every
// repetition and pass runs in a fresh child process, because the intern
// and symbol tables are process-global.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"cspsat/bench/internal/run"
	"cspsat/bench/internal/stats"
	"cspsat/bench/internal/workload"
)

// budget bounds one invocation, so a one-workload run ends within the
// 180 seconds a benchmark run is allowed even if a child hangs.
const budget = 170 * time.Second

type options struct {
	workload   string
	seed       int64
	seconds    int
	trace      int
	root       string
	out        string
	bless      bool
	allowDirty bool
	child      string
	turns      bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workload.Names, ", ")+" (default: all, writing a result file)")
	flag.Int64Var(&o.seed, "seed", 1, "seed for every generated input")
	flag.IntVar(&o.seconds, "seconds", 15, "measuring budget of one run; each repetition measures seconds/reps")
	flag.IntVar(&o.trace, "trace", -1, "0: end-to-end metrics only, 1: per-layer metrics only (default: both)")
	flag.StringVar(&o.root, "root", "", "repository root (default: the nearest directory above holding BENCHMARK.json)")
	flag.StringVar(&o.out, "o", "", "result file of a full set (default bench/out/result-seed<N>.json)")
	flag.BoolVar(&o.bless, "bless", false, "rewrite the goldens from this run (seed 1 only)")
	flag.BoolVar(&o.allowDirty, "allow-dirty", false, "write a result file from a tree with uncommitted changes")
	flag.StringVar(&o.child, "child", "", "internal: run one pass (e2e, setup, single, traced, allocs) and print its JSON")
	flag.BoolVar(&o.turns, "turns", false, "internal: run a single-client pass in turns paced over stdin and stdout")
	flag.Parse()

	if err := o.resolve(); err != nil {
		fmt.Fprintln(os.Stderr, "cspbench:", err)
		os.Exit(2)
	}
	// An interrupted run cancels its context, which kills its children.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	do, limit := runSet, time.Hour // a full set runs far longer than one run
	switch {
	case o.child != "":
		do, limit = runChild, budget
	case o.workload != "" && o.trace >= 0:
		do, limit = runContract, budget
	}
	ctx, cancel := context.WithTimeout(ctx, limit)
	defer cancel()
	run.StoreRoot = os.Getenv("CSPBENCH_STORES")
	err := do(ctx, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cspbench:", err)
		os.Exit(1)
	}
}

// resolve validates the flags and finds the repository root.
func (o *options) resolve() error {
	if o.workload != "" && o.workload != "all" {
		if _, ok := workload.Shapes[o.workload]; !ok {
			return fmt.Errorf("unknown workload %q (known: %s)", o.workload, strings.Join(workload.Names, ", "))
		}
	}
	if o.workload == "all" {
		o.workload = ""
	}
	if o.seconds < 1 || o.trace > 1 {
		return errors.New("-seconds must be positive, -trace 0 or 1")
	}
	if o.bless && o.seed != workload.GoldenSeed {
		return fmt.Errorf("-bless needs -seed %d", workload.GoldenSeed)
	}
	if o.root == "" {
		dir, err := os.Getwd()
		if err != nil {
			return err
		}
		for {
			if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
				break
			}
			parent := filepath.Dir(dir)
			if parent == dir {
				return errors.New("no BENCHMARK.json above the working directory; pass -root")
			}
			dir = parent
		}
		o.root = dir
	}
	return nil
}

func (o options) benchDir() string { return filepath.Join(o.root, "bench") }

// perClientCount is how many requests each client sends per repetition.
func (o options) perClientCount() int {
	return workload.PerClient(o.workload, float64(o.seconds)/workload.Reps)
}

// runChild runs one pass in this process and prints its result as JSON.
func runChild(ctx context.Context, o options) error {
	cfg := run.Config{
		Workload:  o.workload,
		Seed:      o.seed,
		PerClient: o.perClientCount(),
	}
	if g, err := workload.LoadGolden(o.benchDir(), o.workload); err == nil {
		cfg.Golden = g
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	if o.turns {
		// Before each chunk: report ready ("turn") and wait for "go".
		in := bufio.NewReader(os.Stdin)
		cfg.Turn = func(chunk func()) {
			fmt.Println("turn")
			if _, err := in.ReadString('\n'); err != nil {
				fmt.Fprintln(os.Stderr, "cspbench: pass lost its pacer:", err)
				os.Exit(1)
			}
			chunk()
		}
	}
	var res any
	var err error
	switch o.child {
	case "e2e":
		if o.bless {
			cfg.Golden, cfg.BlessDir = nil, o.benchDir()
		}
		var rep *run.Rep
		rep, err = run.E2E(ctx, cfg)
		if rep != nil {
			rep.Answers = nil
		}
		res = rep
	case "setup":
		res, err = run.SetupPass(ctx, cfg)
	case "single":
		res, err = run.SinglePass(ctx, cfg)
	case "traced":
		res, err = run.TracedPass(ctx, cfg, filepath.Join(o.benchDir(), "out", o.workload+".trace.jsonl"), false)
	case "allocs":
		res, err = run.TracedPass(ctx, cfg, filepath.Join(o.benchDir(), "out", o.workload+".allocs.jsonl"), true)
	default:
		return fmt.Errorf("unknown child pass %q", o.child)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// child is a pass running in a child process.
type child struct {
	name string
	cmd  *exec.Cmd
	in   io.WriteCloser
	out  *bufio.Reader
}

// start launches one pass in a fresh child process.
func start(ctx context.Context, o options, pass string, rep int, turns bool) (*child, error) {
	args := []string{
		"-child", pass, "-workload", o.workload, "-seed", fmt.Sprint(o.seed),
		"-seconds", fmt.Sprint(o.seconds), "-root", o.root,
	}
	if o.bless && pass == "e2e" && rep == 0 {
		args = append(args, "-bless")
	}
	if turns {
		args = append(args, "-turns")
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	c := &child{name: fmt.Sprintf("%s pass %d of %s", pass, rep, o.workload)}
	c.cmd = exec.CommandContext(ctx, exe, args...)
	c.cmd.Env = childEnv()
	c.cmd.Stderr = os.Stderr
	// A child outlives no parent, even one killed outright.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if c.in, err = c.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	stdout, err := c.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	c.out = bufio.NewReader(stdout)
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("%s: %w", c.name, err)
	}
	return c, nil
}

// line reads the child's next stdout line.
func (c *child) line() (string, error) {
	l, err := c.out.ReadString('\n')
	if err != nil {
		return "", fmt.Errorf("%s: reading its output: %w", c.name, err)
	}
	return strings.TrimSuffix(l, "\n"), nil
}

// finish decodes the child's result line and waits for it to exit.
func (c *child) finish(result string, into any) error {
	c.in.Close()
	if err := c.cmd.Wait(); err != nil {
		return fmt.Errorf("%s: %w", c.name, err)
	}
	if err := json.Unmarshal([]byte(result), into); err != nil {
		return fmt.Errorf("%s: decoding its result: %w", c.name, err)
	}
	return nil
}

// spawn runs one pass in a fresh child process and decodes its result.
func spawn(ctx context.Context, o options, pass string, rep int, into any) error {
	c, err := start(ctx, o, pass, rep, false)
	if err != nil {
		return err
	}
	result, err := c.line()
	if err != nil {
		_ = c.cmd.Wait() // the missing result is the error to report
		return err
	}
	return c.finish(result, into)
}

// takeTurns runs the untraced and traced single-client passes in two
// child processes that alternate chunk by chunk (run.Turns), so that both
// see the host at the same moments.
func takeTurns(ctx context.Context, o options, single *run.Single, traced *run.Traced) (err error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var kids []*child
	defer func() {
		if err != nil {
			cancel()
			for _, c := range kids {
				_ = c.cmd.Wait() // killed; err says why
			}
		}
	}()
	for _, pass := range []string{"single", "traced"} {
		c, err := start(ctx, o, pass, 0, true)
		if err != nil {
			return err
		}
		kids = append(kids, c)
	}
	// Each child says "turn" when set up and after every chunk but the
	// last, after which it prints its result.
	for _, c := range kids {
		if l, err := c.line(); err != nil || l != "turn" {
			return fmt.Errorf("%s: not ready (%q, %v)", c.name, l, err)
		}
	}
	results := make([]string, len(kids))
	for k := 0; k < run.Turns; k++ {
		order := []int{0, 1}
		if k%2 == 1 {
			order = []int{1, 0}
		}
		for _, i := range order {
			if _, err := fmt.Fprintln(kids[i].in, "go"); err != nil {
				return fmt.Errorf("%s: %w", kids[i].name, err)
			}
			l, err := kids[i].line()
			if err != nil {
				return err
			}
			if k < run.Turns-1 && l != "turn" {
				return fmt.Errorf("%s: unexpected %q between turns", kids[i].name, l)
			}
			results[i] = l
		}
	}
	if err := kids[0].finish(results[0], single); err != nil {
		return err
	}
	return kids[1].finish(results[1], traced)
}

// childEnv is this process's environment without the runtime tuning
// variables: children run as cspserved ships, GOGC unset and GOMAXPROCS
// equal to the CPUs available.
func childEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		switch strings.SplitN(kv, "=", 2)[0] {
		case "GOGC", "GOMAXPROCS", "GOMEMLIMIT", "GODEBUG":
			continue
		}
		env = append(env, kv)
	}
	return env
}

// endToEnd runs the repetitions of one workload, and its set-up-only
// passes, and summarises them.
func endToEnd(ctx context.Context, o options, w *stats.Workload) error {
	reps := make([]*run.Rep, workload.Reps)
	for i := range reps {
		reps[i] = &run.Rep{}
		if err := spawn(ctx, o, "e2e", i, reps[i]); err != nil {
			return err
		}
	}
	var setups, setupsMeasured []float64
	for i := len(reps); i < workload.Shapes[o.workload].Setups; i++ {
		var s run.SetupOnly
		if err := spawn(ctx, o, "setup", i, &s); err != nil {
			return err
		}
		setups = append(setups, s.SetupS*s.Speed)
		setupsMeasured = append(setupsMeasured, s.SetupS)
		w.Attempted += s.Attempted
		w.Failed += s.Failed
		report(o.workload, fmt.Sprintf("setup pass %d", i), s.Problems)
	}
	w.EndToEnd, w.Measured = map[string]stats.Value{}, map[string]stats.Value{}
	var fixture []float64
	for _, m := range run.EndToEnd {
		v, raw := stats.Value{Unit: m.Unit}, stats.Value{Unit: m.Unit}
		for _, r := range reps {
			v.Reps = append(v.Reps, r.Metrics[m.Name])
			raw.Reps = append(raw.Reps, r.Raw[m.Name])
		}
		if m.Name == "setup_s" {
			v.Reps = append(v.Reps, setups...)
			raw.Reps = append(raw.Reps, setupsMeasured...)
		}
		v.Value, raw.Value = stats.Median(v.Reps), stats.Median(raw.Reps)
		w.EndToEnd[m.Name] = v
		if _, timing := reps[0].Raw[m.Name]; timing {
			w.Measured[m.Name] = raw
		}
	}
	// The percentiles pool the repetitions' samples, each at the nominal
	// host speed.
	var lat, latMeasured []float64
	for _, r := range reps {
		for _, l := range r.LatencyUS {
			lat = append(lat, l*r.Speed)
		}
		latMeasured = append(latMeasured, r.LatencyUS...)
	}
	for name, q := range map[string]float64{"latency_p50_us": 0.50, "latency_p99_us": 0.99} {
		v, raw := w.EndToEnd[name], w.Measured[name]
		v.Value, raw.Value = stats.Percentile(lat, q), stats.Percentile(latMeasured, q)
		w.EndToEnd[name], w.Measured[name] = v, raw
	}
	w.Samples = len(lat)
	for i, r := range reps {
		fixture = append(fixture, r.FixtureS)
		w.HostSpeed = append(w.HostSpeed, r.Speed)
		w.Attempted += r.Attempted
		w.Failed += r.Failed
		report(o.workload, fmt.Sprintf("e2e rep %d", i), r.Problems)
		if i == 0 {
			w.OutputDigest = r.OutputDigest
		} else if r.OutputDigest != w.OutputDigest {
			w.Failed++
			report(o.workload, "e2e", []string{fmt.Sprintf("rep %d output digest %.16s differs from rep 0's %.16s", i, r.OutputDigest, w.OutputDigest)})
		}
	}
	w.FixtureS = stats.Median(fixture)
	return nil
}

// perLayer runs the untraced single-client pass and the mirror's timing
// and allocation passes of one workload and combines them.
func perLayer(ctx context.Context, o options, w *stats.Workload) error {
	var single run.Single
	var traced, allocs run.Traced
	if err := takeTurns(ctx, o, &single, &traced); err != nil {
		return err
	}
	if err := spawn(ctx, o, "allocs", 0, &allocs); err != nil {
		return err
	}
	for _, t := range []*run.Traced{&traced, &allocs} {
		run.MirrorMatches(&single, t, &t.Outcome)
		w.Attempted += t.Attempted
		w.Failed += t.Failed
	}
	report(o.workload, "single", single.Problems)
	report(o.workload, "traced", traced.Problems)
	report(o.workload, "allocs", allocs.Problems)
	w.Attempted += single.Attempted
	w.Failed += single.Failed
	w.PerLayer = map[string]stats.Value{}
	w.Classes = run.Attribution(&single, &traced)
	layers := run.Combine(&single, &traced, &allocs)
	for _, m := range run.PerLayer {
		w.PerLayer[m.Name] = stats.Value{Unit: m.Unit, Value: layers[m.Name]}
	}
	return nil
}

func report(name, pass string, problems []string) {
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "cspbench: %s %s: %s\n", name, pass, p)
	}
}

// runContract runs one workload's end-to-end (-trace 0) or per-layer
// (-trace 1) metrics and prints the result line.
func runContract(ctx context.Context, o options) error {
	h := header(o)
	printHeader(h)
	w := &stats.Workload{}
	var list []run.Metric
	var values map[string]stats.Value
	if o.trace == 0 {
		if err := endToEnd(ctx, o, w); err != nil {
			return err
		}
		list, values = run.EndToEnd, w.EndToEnd
	} else {
		if err := perLayer(ctx, o, w); err != nil {
			return err
		}
		list, values = run.PerLayer, w.PerLayer
	}
	printWorkload(o.workload, w)
	flat := map[string]float64{}
	for k, v := range values {
		flat[k] = v.Value
	}
	res := run.NewResult(list, flat, w.Attempted, w.Failed)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%d of %d requests failed", w.Failed, w.Attempted)
	}
	return nil
}

// runSet runs every selected workload's end-to-end and per-layer metrics
// and writes a result file.
func runSet(ctx context.Context, o options) error {
	h := header(o)
	if strings.HasSuffix(h.Commit, "-dirty") && !o.allowDirty {
		return errors.New("working tree is dirty; commit first or pass -allow-dirty")
	}
	printHeader(h)
	names := workload.Names
	if o.workload != "" {
		names = []string{o.workload}
	}
	file := &stats.File{Header: h, Workloads: map[string]*stats.Workload{}}
	failed := 0
	for _, name := range names {
		wo := o
		wo.workload = name
		w := &stats.Workload{}
		if o.trace != 1 {
			if err := endToEnd(ctx, wo, w); err != nil {
				return err
			}
		}
		if o.trace != 0 {
			if err := perLayer(ctx, wo, w); err != nil {
				return err
			}
		}
		printWorkload(name, w)
		file.Workloads[name] = w
		failed += w.Failed
	}
	path := o.out
	if path == "" {
		path = filepath.Join(o.benchDir(), "out", fmt.Sprintf("result-seed%d.json", o.seed))
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	if failed > 0 {
		return fmt.Errorf("%d requests failed", failed)
	}
	return nil
}

func printHeader(h stats.Header) {
	fmt.Printf("cspbench: commit %s, %s, GOMAXPROCS=%d, GOGC=%s, nproc=%d, cpu %q, seed %d, %ds/run, temp fs %s\n",
		h.Commit, h.Go, h.GOMAXPROCS, h.GOGC, h.NumCPU, h.CPU, h.Seed, h.Seconds, h.TempFS)
}

func printWorkload(name string, w *stats.Workload) {
	share := 0.0
	if w.Attempted > 0 {
		share = float64(w.Failed) / float64(w.Attempted)
	}
	fmt.Printf("%s: attempted %d, failed %d (failed_share %g)", name, w.Attempted, w.Failed, share)
	if w.OutputDigest != "" {
		fmt.Printf(", fixture_s %.3f, output_digest %s", w.FixtureS, w.OutputDigest)
	}
	fmt.Println()
	if len(w.HostSpeed) > 0 {
		fmt.Printf("  host speed by the gauge (1 = nominal) %s; timings below are at the nominal speed, then as measured\n", brief(w.HostSpeed))
	}
	for _, m := range run.EndToEnd {
		if v, ok := w.EndToEnd[m.Name]; ok {
			extra := ""
			if raw, ok := w.Measured[m.Name]; ok {
				extra = fmt.Sprintf("  measured %.4f %s", raw.Value, brief(raw.Reps))
			}
			if strings.HasPrefix(m.Name, "latency_") {
				extra += fmt.Sprintf("  (%d samples)", w.Samples)
			}
			fmt.Printf("  %-32s %14.4f %-8s %s%s\n", m.Name, v.Value, m.Unit, brief(v.Reps), extra)
		}
	}
	for _, m := range run.PerLayer {
		if v, ok := w.PerLayer[m.Name]; ok {
			fmt.Printf("  %-32s %14.4f %s\n", m.Name, v.Value, m.Unit)
		}
	}
	if len(w.Classes) > 0 {
		fmt.Println("  class attribution (median µs; attributed = Σ traced layers ÷ untraced):")
		classes := make([]string, 0, len(w.Classes))
		for c := range w.Classes {
			classes = append(classes, c)
		}
		sort.Strings(classes)
		for _, c := range classes {
			row := w.Classes[c]
			names := make([]string, 0, len(row.LayersUS))
			for n := range row.LayersUS {
				names = append(names, n)
			}
			sort.Strings(names)
			var parts []string
			for _, n := range names {
				parts = append(parts, fmt.Sprintf("%s %.1f", n, row.LayersUS[n]))
			}
			fmt.Printf("    %-24s untraced %9.1f  attributed %5.2f  %s\n", c, row.UntracedUS, row.Attributed, strings.Join(parts, ", "))
		}
	}
}

// brief formats a metric's per-process values.
func brief(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// header collects the provenance stamped on every run.
func header(o options) stats.Header {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "unset"
	}
	return stats.Header{
		Date:       time.Now().UTC().Format(time.RFC3339),
		Commit:     commit(o.root),
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       gogc,
		NumCPU:     runtime.NumCPU(),
		CPU:        cpuModel(),
		Seed:       o.seed,
		Seconds:    o.seconds,
		TempFS:     tempFS(),
	}
}

// commit returns the checked-out commit, suffixed -dirty when tracked
// files have uncommitted changes, or "unknown" outside a git checkout.
func commit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	sha := strings.TrimSpace(string(out))
	if err := exec.Command("git", "-C", root, "diff", "--quiet", "HEAD").Run(); err != nil {
		return sha + "-dirty"
	}
	return sha
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// tempFS names the filesystem under the temp directory, where the
// journal and store live.
func tempFS() string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(os.TempDir(), &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xef53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x58465342: "xfs", 0x9123683e: "btrfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
