package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// metric is one reported quantity. The two tables below are the
// benchmark's schema; BENCHMARK.json lists the same names and units
// (TestSchemaMatchesBenchmarkJSON keeps them in step).
type metric struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees, reported by every
// untraced run of every workload. Each workload defines its unit of work
// and its latency operation (see README.md):
//
//	pf-*           work = simulated instruction, op = 64Ki-instruction slice
//	report-table8  work = simulated instruction, op = one whole experiment
//	smt-fig13      work = simulated SMT cycle,   op = one whole experiment
//	serve-batch    work = bandit decision,       op = one /v1/batch request
var endToEnd = []metric{
	{"work_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics, named <layer>.<quantity> after
// the repository's modules. A layer a workload never enters reports 0.
// Time is reported as a share of the traced host time, except where a
// layer is timed in isolation (bench.timer_ns, core.batch_ns_per_decision),
// so every time-unit metric is measured on every workload.
var perLayer = []metric{
	{"bench.timer_ns", "ns"},
	{"bench.trace_overhead", "ratio"},
	{"trace.fill_share", "share"},
	{"trace.chunks", "count"},
	{"trace.chunk_hit_rate", "ratio"},
	{"cpu.insts", "count"},
	{"cpu.ff_coverage", "ratio"},
	{"cpu.window_mem_share", "share"},
	{"cpu.l2hook_calls", "count"},
	{"cpu.l2hook_self_share", "share"},
	{"prefetch.operate_share", "share"},
	{"prefetch.candidates_per_call", "ratio"},
	{"prefetch.useful_ratio", "ratio"},
	{"mem.l1_hit_rate", "ratio"},
	{"mem.l2_hit_rate", "ratio"},
	{"mem.llc_hit_rate", "ratio"},
	{"mem.llc_mpki", "1/kinst"},
	{"mem.pref_issued", "count"},
	{"mem.pref_dropped", "count"},
	{"mem.pref_late", "count"},
	{"mem.dram_reads", "count"},
	{"mem.dram_writes", "count"},
	{"mem.dram_queued", "count"},
	{"mem.dram_bw_util", "ratio"},
	{"mem.access_share", "share"},
	{"core.steps", "count"},
	{"core.share", "share"},
	{"core.step_share", "share"},
	{"core.reward_share", "share"},
	{"core.batch_ns_per_decision", "ns"},
	{"serve.requests", "count"},
	{"serve.handler_share", "ratio"},
	{"simsmt.cycles", "count"},
	{"go.cpu_util", "ratio"},
	{"go.gc_cpu_fraction", "ratio"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
}

// result is one workload run's outcome.
type result struct {
	attempted, failed int64
	failures          []string
	e2e, layer        map[string]float64
	// notes are extra human-readable lines (per-call costs, sample
	// counts, unresolved measurements) printed before the JSON line.
	notes []string
	// spans are the traced run's aggregated layer spans.
	spans []spanOut
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// fail records a failed operation.
func (r *result) fail(format string, args ...any) {
	r.failed++
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// note adds a human-readable line.
func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

type jsonValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line is the final JSON line of a run.
type line struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]jsonValue `json:"metrics"`
}

// print writes the human lines (`<workload> <metric> <value> <unit>`)
// and, last, the JSON result line.
func (r *result) print(workload string, traced bool) line {
	table, vals := endToEnd, r.e2e
	if traced {
		table, vals = perLayer, r.layer
	}
	out := line{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]jsonValue{}}
	for _, f := range r.failures {
		fmt.Fprintf(os.Stderr, "%s FAILED: %s\n", workload, f)
	}
	for _, n := range r.notes {
		fmt.Printf("%s %s\n", workload, n)
	}
	for _, m := range table {
		v := vals[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		fmt.Printf("%s %s %s %s\n", workload, m.name, formatValue(v), m.unit)
		out.Metrics[m.name] = jsonValue{Value: v, Unit: m.unit}
	}
	fmt.Printf("%s ops %d\n%s failed %d\n", workload, r.attempted, workload, r.failed)
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // only finite floats and strings: cannot fail
	}
	fmt.Println(string(b))
	return out
}

func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.6g", v)
}

// quartiles returns Q1, median and Q3 by the "exclusive" method of
// Python's statistics.quantiles(values, n=4), which is how the spreads in
// BENCHMARK.json are judged. With fewer than two values every quartile is
// the single value.
func quartiles(values []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// median returns the middle of values (the mean of the two middle ones
// for an even count).
func median(values []float64) float64 {
	_, m, _ := quartiles(values)
	return m
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100).
func percentile(values []float64, p float64) float64 {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	if len(d) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(d))))
	if rank < 1 {
		rank = 1
	}
	return d[rank-1]
}

// ratio returns num/den, or 0 for an empty denominator.
func ratio(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}
