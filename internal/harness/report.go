package harness

// Experiment is one runnable table/figure reproduction.
type Experiment struct {
	// ID is the paper's table/figure identifier ("fig8", "table9", ...).
	ID string
	// Desc is a one-line description.
	Desc string
	// Run executes the experiment once and returns its rendered result
	// and its CSV rows ("" for an experiment without a tabular form: the
	// exploration traces, the ablation bundle, the analytic area/power
	// model and the text-only extensions).
	Run func(o Options) (text, csv string)
}

// tabular adapts an experiment with a CSV form.
func tabular[R interface {
	Render() string
	CSV() string
}](run func(Options) R) func(Options) (string, string) {
	return func(o Options) (string, string) {
		r := run(o)
		return r.Render(), r.CSV()
	}
}

// textOnly adapts an experiment without one.
func textOnly[R interface{ Render() string }](run func(Options) R) func(Options) (string, string) {
	return func(o Options) (string, string) { return run(o).Render(), "" }
}

// Experiments returns every reproducible table and figure plus the
// ablations, in the order the paper presents them.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "fig2", Desc: "Temporal homogeneity of Pythia's action space", Run: tabular(Fig2)},
		{ID: "fig5", Desc: "Fetch PG policy design space vs Choi", Run: tabular(Fig5)},
		{ID: "table8", Desc: "Bandit algorithms vs best static arm (prefetch tune set)", Run: tabular(Table8)},
		{ID: "table9", Desc: "Bandit algorithms vs best static arm (SMT tune set)", Run: tabular(Table9)},
		{ID: "fig7", Desc: "Exploration traces (prefetch + SMT panels)",
			Run: func(o Options) (string, string) {
				return RenderFig7(append(Fig7Prefetch(o), Fig7SMT(o)...)), ""
			}},
		{ID: "fig8", Desc: "Single-core prefetcher comparison", Run: tabular(Fig8)},
		{ID: "fig9", Desc: "Prefetch classification (timely/late/wrong)", Run: tabular(Fig9)},
		{ID: "fig10", Desc: "DRAM bandwidth sweep (Pythia vs Bandit)", Run: tabular(Fig10)},
		{ID: "fig11", Desc: "Alternative cache hierarchy", Run: tabular(Fig11)},
		{ID: "fig12", Desc: "Multi-level prefetching", Run: tabular(Fig12)},
		{ID: "fig13", Desc: "SMT Bandit vs Choi across mixes", Run: tabular(Fig13)},
		{ID: "fig14", Desc: "Four-core prefetcher comparison", Run: tabular(Fig14)},
		{ID: "fig15", Desc: "Rename-stage cycle breakdown", Run: tabular(Fig15)},
		{ID: "areapower", Desc: "Storage / area / power model",
			Run: func(Options) (string, string) { return AreaPower().Render(), "" }},
		{ID: "ablations", Desc: "Design-choice ablations",
			Run: func(o Options) (string, string) { return RenderAblations(o), "" }},
		{ID: "extras", Desc: "Extensions: BOP contrast (§8) and hierarchical bandit (§9)", Run: textOnly(Extras)},
		{ID: "rewards", Desc: "Alternative SMT reward metrics (§6.4)", Run: textOnly(RewardMetrics)},
		{ID: "tuning", Desc: "Hyperparameter tuning sweep (§6.3)", Run: textOnly(Tuning)},
		{ID: "robust", Desc: "Fault-injection robustness sweep (graceful degradation, §4.3)", Run: tabular(Robust)},
	}
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
