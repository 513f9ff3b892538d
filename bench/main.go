// Command bench is the repository's benchmark: six named workloads, each
// run in a process of its own, reporting end-to-end host metrics (or, with
// --trace 1, per-layer metrics from a traced run) and checking every
// output for correctness. See README.md for the workloads, the metrics
// and how to read them.
//
//	bash bench/run.sh --workload pf-stream --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --seed 1 --out bench/out/run.json   # all workloads
//	bash bench/run.sh --repeat 10 --out bench/out/repeat.json
//
// A single-workload run prints `<workload> <metric> <value> <unit>` lines
// and, as its last line, one JSON object {correct, attempted, failed,
// metrics}. It exits non-zero when any output is wrong.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// workload is one named set of inputs.
type workload struct {
	name string
	run  func(runCfg) *result
}

// workloads lists the benchmark's workloads; BENCHMARK.json records why
// each was chosen.
var workloads = []workload{
	{"pf-stream", pfWorkload{app: "lbm17", insts: 20_000_000}.run},
	{"pf-chase", pfWorkload{app: "canneal", insts: 15_000_000}.run},
	{"pf-compute", pfWorkload{app: "cactuBSSN", insts: 40_000_000}.run},
	{"report-table8", expWorkload{table8: true}.run},
	{"smt-fig13", expWorkload{}.run},
	{"serve-batch", serveWorkload{}.run},
}

// runCfg is one workload run's configuration.
type runCfg struct {
	workload string
	seed     uint64
	seconds  float64 // measuring window
	trace    bool
	clk      clock
	golden   *golden
	update   bool // record results into the golden instead of checking
}

func main() {
	name := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measuring window per run, in seconds")
	traceFlag := flag.Int("trace", 0, "1 runs traced and reports per-layer metrics")
	repeat := flag.Int("repeat", 0, "stability mode: run the workload(s) untraced for this many seeds (seed, seed+1, ...) and report quartiles")
	out := flag.String("out", "", "also write the results as JSON to this file")
	update := flag.Bool("update-golden", false, "record this run's simulated results as the seed's golden")
	flag.Parse()

	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	if *name != "all" && !slices.Contains(names, *name) {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (valid: all, %s)\n", *name, strings.Join(names, ", "))
		os.Exit(2)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "bench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if !(*seconds > 0) || *repeat < 0 {
		fmt.Fprintln(os.Stderr, "bench: --seconds must be positive and --repeat non-negative")
		os.Exit(2)
	}
	base := []string{"--seconds", strconv.FormatFloat(*seconds, 'g', -1, 64)}
	if *name != "all" {
		names = []string{*name}
	}
	switch {
	case *repeat > 0:
		os.Exit(runRepeat(names, *repeat, *seed, base, *out))
	case *name == "all":
		args := append(base, "--trace", strconv.Itoa(*traceFlag))
		if *update {
			args = append(args, "--update-golden")
		}
		os.Exit(runAll(names, *seed, args, *out))
	}
	g, err := loadGolden(*seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	cfg := runCfg{workload: *name, seed: *seed, seconds: *seconds, trace: *traceFlag == 1,
		golden: g, update: *update}
	os.Exit(runOne(cfg, *out))
}

// runOne runs one workload in this process.
func runOne(cfg runCfg, out string) int {
	cfg.clk = calibrateClock()
	var w workload
	for _, x := range workloads {
		if x.name == cfg.workload {
			w = x
		}
	}
	res := w.run(cfg)
	if cfg.trace {
		res.layer["bench.timer_ns"] = cfg.clk.pairNs
		if err := writeSpans(cfg, res.spans); err != nil {
			res.fail("writing spans: %v", err)
		}
	} else if rss, err := peakRSSMB(); err != nil {
		res.fail("reading peak RSS: %v", err)
	} else {
		res.e2e["peak_rss_mb"] = rss
	}
	if cfg.update && res.failed == 0 {
		if err := cfg.golden.save(cfg.seed); err != nil {
			res.fail("writing golden: %v", err)
		}
	}
	if res.attempted == 0 {
		res.fail("no operation completed")
	}
	ln := res.print(cfg.workload, cfg.trace)
	if out != "" {
		if err := writeJSON(out, ln); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if res.failed > 0 {
		return 1
	}
	return 0
}

// writeSpans writes the traced run's spans to bench/out/<workload>.spans.json.
func writeSpans(cfg runCfg, spans []spanOut) error {
	return writeJSON(filepath.Join("bench", "out", cfg.workload+".spans.json"), map[string]any{
		"workload":      cfg.workload,
		"seed":          cfg.seed,
		"timer_pair_ns": cfg.clk.pairNs,
		"sample_every":  sampleEvery,
		"spans":         spans,
	})
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// child runs one workload in a process of its own and returns its result
// line. echo receives the child's standard output as it runs.
func child(name string, seed uint64, args []string, echo io.Writer) (line, error) {
	exe, err := os.Executable()
	if err != nil {
		return line{}, err
	}
	var buf bytes.Buffer
	cmd := exec.Command(exe, append([]string{"--workload", name, "--seed", strconv.FormatUint(seed, 10)}, args...)...)
	cmd.Stdout = io.MultiWriter(echo, &buf)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var last string
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		last = sc.Text()
	}
	var ln line
	if err := json.Unmarshal([]byte(last), &ln); err != nil {
		return line{}, fmt.Errorf("%s: no result line (%v)", name, runErr)
	}
	if runErr != nil {
		return ln, fmt.Errorf("%s: %v", name, runErr)
	}
	return ln, nil
}

// runAll runs every workload, one child process each.
func runAll(names []string, seed uint64, args []string, out string) int {
	code := 0
	results := map[string]line{}
	for _, n := range names {
		ln, err := child(n, seed, args, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			code = 1
		}
		results[n] = ln
	}
	if out != "" {
		if err := writeJSON(out, results); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	return code
}

// quartileRow is one (workload, metric) of the stability report.
type quartileRow struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Runs   int       `json:"runs"`
	Values []float64 `json:"values"` // in seed order
}

// runRepeat is the stability mode: n rounds, each running the named
// workloads untraced with the round's seed, alternating their order
// between rounds. It prints median, Q1 and Q3 per (workload, end-to-end
// metric) and flags spreads (Q3-Q1)/median above the metric's bound in
// BENCHMARK.json; setup_s is exempt, its spread is not judged.
func runRepeat(names []string, n int, seed uint64, args []string, out string) int {
	bounds, err := readBounds("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	vals := map[string]map[string][]float64{}
	code := 0
	for r := 0; r < n; r++ {
		order := slices.Clone(names)
		if r%2 == 1 {
			slices.Reverse(order)
		}
		for _, name := range order {
			ln, err := child(name, seed+uint64(r), append(args, "--trace", "0"), io.Discard)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				code = 1
				continue
			}
			if vals[name] == nil {
				vals[name] = map[string][]float64{}
			}
			for k, v := range ln.Metrics {
				vals[name][k] = append(vals[name][k], v.Value)
			}
			fmt.Fprintf(os.Stderr, "round %d/%d %s done\n", r+1, n, name)
		}
	}
	report := map[string]map[string]quartileRow{}
	fmt.Printf("%-14s %-16s %14s %14s %14s %8s %6s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound")
	for _, name := range names {
		report[name] = map[string]quartileRow{}
		for _, m := range endToEnd {
			v := vals[name][m.name]
			q1, med, q3 := quartiles(v)
			spread := ratio(q3-q1, med)
			flag := ""
			if spread > bounds[m.name] && m.name != "setup_s" {
				flag = "  FLAGGED"
				code = 1
			}
			fmt.Printf("%-14s %-16s %14.6g %14.6g %14.6g %8.4f %6.2f%s\n", name, m.name, med, q1, q3, spread, bounds[m.name], flag)
			report[name][m.name] = quartileRow{Median: med, Q1: q1, Q3: q3, Runs: len(v), Values: v}
		}
	}
	if out != "" {
		doc := map[string]any{
			"hardware": hardware(),
			"seeds":    [2]uint64{seed, seed + uint64(n) - 1},
			"args":     args,
			"metrics":  report,
		}
		if err := writeJSON(out, doc); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	return code
}

// hardware describes the machine a measurement ran on.
func hardware() map[string]any {
	model := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"nproc": runtime.NumCPU(), "cpu": model,
		"go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
	}
}

// benchmarkFile is the part of BENCHMARK.json the benchmark reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	data, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		return bf, fmt.Errorf("parsing %s: %w", path, err)
	}
	return bf, nil
}

// readBounds returns the end-to-end regression bounds by metric name.
func readBounds(path string) (map[string]float64, error) {
	bf, err := readBenchmarkFile(path)
	if err != nil {
		return nil, err
	}
	b := map[string]float64{}
	for _, m := range bf.EndToEnd {
		b[m.Name] = m.Bound
	}
	return b, nil
}
