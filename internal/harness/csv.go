package harness

import (
	"fmt"

	"microbandit/internal/stats"
)

// This file provides machine-readable CSV alongside the rendered text for
// the tabular experiments, so results can be re-plotted outside the repo
// (mab-report -csvdir writes one .csv per experiment).

// CSV returns the Fig. 2 rows.
func (r Fig2Result) CSV() string {
	t := stats.NewTable("", "app", "top1_frac", "top2_frac")
	for _, row := range r.Rows {
		t.AddFloatRow(row.App, "%.4f", row.Top1Frac, row.Top2Frac)
	}
	t.AddFloatRow("average", "%.4f", r.AvgTop1, r.AvgTop2)
	return t.CSV()
}

// CSV returns the Fig. 5 rows.
func (r Fig5Result) CSV() string {
	t := stats.NewTable("", "mix", "best_policy", "best_delta", "worst_delta")
	for _, row := range r.Rows {
		t.AddRow(row.Mix, row.BestPolicy,
			fmt.Sprintf("%.4f", row.BestDelta), fmt.Sprintf("%.4f", row.WorstDelta))
	}
	return t.CSV()
}

// summaryCSV renders an algorithm-summary table (Tables 8 and 9).
func summaryCSV(order []string, algos map[string]stats.Summary) string {
	t := stats.NewTable("", "algorithm", "min_pct", "max_pct", "gmean_pct")
	for _, name := range order {
		s := algos[name]
		t.AddFloatRow(name, "%.2f", s.Min, s.Max, s.GMean)
	}
	return t.CSV()
}

// CSV returns the Table 8 summary.
func (r Table8Result) CSV() string { return summaryCSV(r.Order, r.Algos) }

// CSV returns the Table 9 summary.
func (r Table9Result) CSV() string { return summaryCSV(r.Order, r.Algos) }

// CSV returns the Fig. 8 / Fig. 11 per-suite matrix.
func (r Fig8Result) CSV() string {
	headers := append([]string{"prefetcher"}, r.Suites...)
	headers = append(headers, "all")
	t := stats.NewTable("", headers...)
	for _, kind := range r.Kinds {
		cells := []string{kind}
		for _, s := range r.Suites {
			cells = append(cells, fmt.Sprintf("%.4f", r.Norm[kind][s]))
		}
		cells = append(cells, fmt.Sprintf("%.4f", r.Norm[kind]["all"]))
		t.AddRow(cells...)
	}
	return t.CSV()
}

// CSV returns the Fig. 9 classification rows.
func (r Fig9Result) CSV() string {
	t := stats.NewTable("", "prefetcher", "llc_misses", "timely", "late", "wrong")
	for _, row := range r.Rows {
		t.AddFloatRow(row.Kind, "%.4f", row.LLCMisses, row.Timely, row.Late, row.Wrong)
	}
	return t.CSV()
}

// CSV returns the Fig. 10 sweep series.
func (r Fig10Result) CSV() string {
	py := stats.Series{Name: "pythia", X: r.MTPS, Y: r.Pythia}
	bd := stats.Series{Name: "bandit", X: r.MTPS, Y: r.Bandit}
	return stats.SeriesCSV("mtps", []stats.Series{py, bd})
}

// CSV returns the Fig. 12 combo rows.
func (r Fig12Result) CSV() string {
	t := stats.NewTable("", "combo", "gmean_norm_ipc")
	for i, k := range r.Kinds {
		t.AddFloatRow(k, "%.4f", r.Norm[i])
	}
	return t.CSV()
}

// CSV returns the Fig. 13 sorted ratio curve.
func (r Fig13Result) CSV() string {
	t := stats.NewTable("", "mix", "bandit_over_choi")
	for i, m := range r.Mixes {
		t.AddFloatRow(m, "%.4f", r.Ratios[i])
	}
	return t.CSV()
}

// CSV returns the Fig. 14 rows.
func (r Fig14Result) CSV() string {
	t := stats.NewTable("", "prefetcher", "homogeneous", "heterogeneous")
	for i, k := range r.Kinds {
		cells := []string{k, fmt.Sprintf("%.4f", r.Norm[i])}
		if len(r.HeteroNorm) > i {
			cells = append(cells, fmt.Sprintf("%.4f", r.HeteroNorm[i]))
		}
		t.AddRow(cells...)
	}
	return t.CSV()
}

// CSV returns the Fig. 15 state fractions.
func (r Fig15Result) CSV() string {
	headers := append([]string{"policy"}, Fig15StateOrder...)
	t := stats.NewTable("", headers...)
	for _, kind := range []string{"Choi", "Bandit"} {
		cells := []string{kind}
		for _, s := range Fig15StateOrder {
			cells = append(cells, fmt.Sprintf("%.4f", r.Fractions[kind][s]))
		}
		t.AddRow(cells...)
	}
	return t.CSV()
}
