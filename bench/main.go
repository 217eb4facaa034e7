// Command bench is the repository benchmark: five closed-loop workloads
// over the profile → adapt → link → decode → simulate pipeline, the
// serving layer and the tuner, each run in its own child process.
//
// Usage (from the repository root):
//
//	go -C bench run . [-workload all|a,b] [-seed N] [-seconds S] [-out FILE] [-trace 0|1|FILE] [-smoke]
//	go -C bench run . compare A.jsonl B.jsonl
//
// An untraced run prints every end-to-end metric as "workload metric value
// unit", checks every output, and exits 1 if any operation failed. A traced
// run (-trace 1, or -trace FILE to also write the spans) adds a pass with
// spans around the calls into each layer and prints the per-layer metrics.
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// startupEnv carries the median process start-up time the parent measured,
// in seconds, so the child's setup_s can include it; probeEnv makes a
// child exit as soon as it starts, which is what the parent times.
const (
	startupEnv    = "SSPBENCH_STARTUP_S"
	probeEnv      = "SSPBENCH_STARTUP_PROBE"
	startupProbes = 21 // about 2 ms each
)

type options struct {
	workloads []workload
	seed      int64
	seconds   float64
	out       string
	traced    bool
	spansFile string
	smoke     bool
	child     bool
	root      string
}

func main() {
	if os.Getenv(probeEnv) != "" {
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := runCompare(os.Stdout, os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			os.Exit(1)
		}
		return
	}
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if o.child {
		os.Exit(runChild(o))
	}
	os.Exit(runParent(o))
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	names := fs.String("workload", "all", "workloads to run: all, or a comma-separated list")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 12, "measuring budget per workload: as many units of its fixed work as fit at their nominal pace, at least one")
	fs.StringVar(&o.out, "out", "", "append one JSON record per workload run to this file")
	trace := fs.String("trace", "0", "0 (untraced), 1 (traced), or a file to write the traced run's spans to")
	fs.BoolVar(&o.smoke, "smoke", false, "run the small sizes the tests use")
	fs.BoolVar(&o.child, "child", false, "run one workload in this process (used by the parent)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	switch *trace {
	case "", "0":
	case "1":
		o.traced = true
	default:
		o.traced, o.spansFile = true, *trace
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("-seconds must be positive")
	}
	if *names == "all" {
		o.workloads = workloadList
	} else {
		for _, n := range strings.Split(*names, ",") {
			w, ok := workloadByName(strings.TrimSpace(n))
			if !ok {
				var valid []string
				for _, w := range workloadList {
					valid = append(valid, w.name)
				}
				return o, fmt.Errorf("unknown workload %q (valid: all, %s)", n, strings.Join(valid, ", "))
			}
			o.workloads = append(o.workloads, w)
		}
	}
	if o.child && len(o.workloads) != 1 {
		return o, fmt.Errorf("-child runs exactly one workload")
	}
	root, err := findRoot()
	o.root = root
	return o, err
}

// findRoot returns the nearest directory at or above the working directory
// that holds the repository's golden-stats baseline.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "internal", "exp", "testdata", "golden_stats.json")); err == nil {
			return filepath.Abs(dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("repository root not found: run from inside the repository")
		}
		dir = parent
	}
}

// runChild runs the one workload and prints its outcome as the last line.
func runChild(o options) int {
	w := o.workloads[0]
	e := &env{seed: o.seed, units: unitsFor(w, o.seconds, o.smoke), smoke: o.smoke, traced: o.traced, root: o.root}
	if v, err := strconv.ParseFloat(os.Getenv(startupEnv), 64); err == nil {
		e.startup = v
	}
	out, err := w.run(e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	if o.traced {
		zeroLayers(out)
	}
	out.finish()
	if o.spansFile != "" {
		if err := writeSpans(o.spansFile, e.spans); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: spans: %v\n", w.name, err)
			return 1
		}
	}
	data, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(data))
	return 0
}

// record is one line of an -out file.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Traced   bool    `json:"traced"`
	Smoke    bool    `json:"smoke,omitempty"`
	Outcome  outcome `json:"outcome"`
}

// runParent runs each workload in a fresh child process, one at a time,
// and prints the results.
func runParent(o options) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	var results []*outcome
	var spans []Span
	for _, w := range o.workloads {
		out, ws, err := runWorkloadChild(self, o, w)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		printOutcome(os.Stdout, out)
		results = append(results, out)
		spans = merge(spans, ws, w.name)
		if o.out != "" {
			if err := appendRecord(o.out, record{w.name, o.seed, o.traced, o.smoke, *out}); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
		}
	}
	if o.spansFile != "" {
		if err := writeSpans(o.spansFile, spans); err != nil {
			fmt.Fprintln(os.Stderr, "bench: spans:", err)
			return 1
		}
	}
	final := summary(results, o.traced)
	data, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(data))
	if !final.Correct {
		return 1
	}
	return 0
}

// runWorkloadChild runs one workload in a child process and returns its
// outcome and, with a spans file, its spans.
func runWorkloadChild(self string, o options, w workload) (*outcome, []Span, error) {
	args := []string{"-child", "-workload", w.name, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64)}
	if o.smoke {
		args = append(args, "-smoke")
	}
	var spansPath string
	switch {
	case o.spansFile != "":
		spansPath = o.spansFile + "." + w.name + ".tmp"
		args = append(args, "-trace", spansPath)
		defer os.Remove(spansPath)
	case o.traced:
		args = append(args, "-trace", "1")
	}
	startup, err := probeStartup(self)
	if err != nil {
		return nil, nil, err
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%g", startupEnv, startup))
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("child: %w", err)
	}
	out, err := lastJSONLine[outcome](stdout.Bytes())
	if err != nil {
		return nil, nil, fmt.Errorf("child output: %w", err)
	}
	var spans []Span
	if spansPath != "" {
		data, err := os.ReadFile(spansPath)
		if err != nil {
			return nil, nil, err
		}
		if err := json.Unmarshal(data, &spans); err != nil {
			return nil, nil, err
		}
	}
	return out, spans, nil
}

// probeStartup starts the benchmark binary startupProbes times in probe
// mode, where it exits as soon as main runs, and returns the median time
// from start to exit in seconds: the process start-up part of setup_s.
func probeStartup(self string) (float64, error) {
	var ds []float64
	for i := 0; i < startupProbes; i++ {
		cmd := exec.Command(self)
		cmd.Env = append(os.Environ(), probeEnv+"=1")
		t0 := time.Now()
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("start-up probe: %w", err)
		}
		ds = append(ds, time.Since(t0).Seconds())
	}
	return median(ds), nil
}

func lastJSONLine[T any](data []byte) (*T, error) {
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	v := new(T)
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), v); err != nil {
		return nil, err
	}
	return v, nil
}

// printOutcome prints one workload's metrics as "workload metric value
// unit" lines, then its notes and errors.
func printOutcome(w io.Writer, o *outcome) {
	for _, m := range o.Metrics {
		fmt.Fprintf(w, "%s %s %s %s\n", o.Workload, m.Name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	for _, n := range o.Notes {
		fmt.Fprintf(w, "# %s: %s\n", o.Workload, n)
	}
	for _, e := range o.Errors {
		fmt.Fprintf(w, "# %s: FAILED: %s\n", o.Workload, e)
	}
}

// result is the final stdout line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]valueInUnit `json:"metrics"`
}

type valueInUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary folds the outcomes into the final line: the end-to-end metrics
// of an untraced run or the per-layer metrics of a traced one, named
// "workload/metric" when more than one workload ran.
func summary(outs []*outcome, traced bool) result {
	want := hostTime
	if traced {
		want = layer
	}
	r := result{Correct: true, Metrics: make(map[string]valueInUnit)}
	for _, o := range outs {
		r.Correct = r.Correct && o.Correct
		r.Attempted += o.Attempted
		r.Failed += o.Failed
		for _, m := range o.Metrics {
			if spec, _ := specOf(m.Name); spec.Kind != want {
				continue
			}
			name := m.Name
			if len(outs) > 1 {
				name = o.Workload + "/" + name
			}
			r.Metrics[name] = valueInUnit{m.Value, m.Unit}
		}
	}
	return r
}

func appendRecord(path string, rec record) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	data, err := json.Marshal(rec)
	if err == nil {
		_, err = f.Write(append(data, '\n'))
	}
	if err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
