package harness

import (
	"strings"
	"testing"

	"microbandit/internal/smtwork"
	"microbandit/internal/trace"
)

// tiny returns an even smaller preset than Smoke for the slowest sweeps.
func tiny() Options {
	o := Smoke()
	o.Insts = 150_000
	o.StepL2 = 150
	o.MaxApps = 1
	o.SMTCycles = 150_000
	o.EpochLen = 2048
	o.RREpochs = 2
	o.MaxMixes = 2
	return o
}

func TestOptionsAppsCap(t *testing.T) {
	o := Options{MaxApps: 2}
	apps := o.apps(trace.Catalog())
	perSuite := map[string]int{}
	for _, a := range apps {
		perSuite[a.Suite]++
	}
	for s, n := range perSuite {
		if n > 2 {
			t.Errorf("suite %s has %d apps, cap 2", s, n)
		}
	}
	if len(o.apps(trace.Catalog())) == len(trace.Catalog()) {
		t.Error("cap had no effect")
	}
	uncapped := Options{}
	if len(uncapped.apps(trace.Catalog())) != len(trace.Catalog()) {
		t.Error("MaxApps=0 must mean all")
	}
}

func TestOptionsMixesCap(t *testing.T) {
	o := Options{MaxMixes: 5}
	mixes := o.mixes(smtwork.Mixes())
	if len(mixes) != 5 {
		t.Fatalf("got %d mixes", len(mixes))
	}
	seen := map[string]bool{}
	for _, m := range mixes {
		if seen[m.Name()] {
			t.Error("duplicate mix in capped selection")
		}
		seen[m.Name()] = true
	}
}

func TestSubSeedStable(t *testing.T) {
	o := Options{Seed: 9}
	if o.subSeed("a", "b") != o.subSeed("a", "b") {
		t.Error("subSeed not stable")
	}
	if o.subSeed("a", "b") == o.subSeed("a", "c") {
		t.Error("subSeed collision across names")
	}
	o2 := Options{Seed: 10}
	if o.subSeed("a") == o2.subSeed("a") {
		t.Error("subSeed ignores Seed")
	}
}

func TestSubSeedPartBoundaries(t *testing.T) {
	// Parts must be hashed with a separator: concatenations that split
	// differently are different seeds.
	o := Options{Seed: 9}
	if o.subSeed("ab", "c") == o.subSeed("a", "bc") {
		t.Error(`subSeed("ab","c") collides with subSeed("a","bc")`)
	}
	if o.subSeed("abc") == o.subSeed("ab", "c") {
		t.Error(`subSeed("abc") collides with subSeed("ab","c")`)
	}
	if o.subSeed("a", "") == o.subSeed("a") {
		t.Error("trailing empty part must change the seed")
	}
}

func TestFig2TemporalHomogeneity(t *testing.T) {
	o := tiny()
	o.MaxApps = 2
	res := Fig2(o)
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range res.Rows {
		if r.Top1Frac <= 0 || r.Top1Frac > 1 || r.Top2Frac < r.Top1Frac || r.Top2Frac > 1 {
			t.Errorf("%s: implausible fractions %+v", r.App, r)
		}
	}
	// The property the paper exploits: a small fraction of the action
	// space dominates selections.
	if res.AvgTop2 < 0.2 {
		t.Errorf("avg top-2 fraction = %.2f; expected clear temporal homogeneity", res.AvgTop2)
	}
	if !strings.Contains(res.Render(), "Fig. 2") {
		t.Error("render missing title")
	}
}

func TestTable8Shape(t *testing.T) {
	o := tiny()
	res := Table8(o)
	for _, name := range res.Order {
		s, ok := res.Algos[name]
		if !ok {
			t.Fatalf("missing algorithm %s", name)
		}
		if s.GMean < 40 || s.GMean > 120 {
			t.Errorf("%s gmean = %.1f%% of best static, implausible", name, s.GMean)
		}
		if s.Min > s.GMean+1e-9 || s.GMean > s.Max+1e-9 {
			t.Errorf("%s summary ordering broken: %+v", name, s)
		}
	}
	if !strings.Contains(res.Render(), "DUCB") {
		t.Error("render missing DUCB column")
	}
}

func TestFig8SingleCore(t *testing.T) {
	o := tiny()
	o.MaxApps = 1
	res := Fig8(o)
	if len(res.Kinds) != 5 {
		t.Fatalf("kinds = %v", res.Kinds)
	}
	for _, kind := range res.Kinds {
		all := res.Norm[kind]["all"]
		if all < 0.5 || all > 5 {
			t.Errorf("%s overall norm IPC = %.3f implausible", kind, all)
		}
	}
	// Prefetching should on average help (normalized > 1) for the Bandit.
	if res.Norm["Bandit"]["all"] < 1.0 {
		t.Errorf("Bandit normalized IPC = %.3f < 1", res.Norm["Bandit"]["all"])
	}
	out := res.Render()
	if !strings.Contains(out, "ALL") || !strings.Contains(out, "Bandit") {
		t.Error("render incomplete")
	}
	_ = res.Speedup("Bandit", "Stride")
}

func TestFig9Classification(t *testing.T) {
	o := tiny()
	o.MaxApps = 1
	res := Fig9(o)
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.LLCMisses < 0 || r.Timely < 0 || r.Late < 0 || r.Wrong < 0 {
			t.Errorf("%s: negative classification %+v", r.Kind, r)
		}
	}
	if !strings.Contains(res.Render(), "timely") {
		t.Error("render incomplete")
	}
}

func TestFig10BandwidthSweep(t *testing.T) {
	o := tiny()
	o.MaxApps = 1
	res := Fig10(o)
	if len(res.MTPS) != 4 || len(res.Pythia) != 4 || len(res.Bandit) != 4 {
		t.Fatalf("sweep shape wrong: %+v", res)
	}
	for i := range res.MTPS {
		if res.Pythia[i] <= 0 || res.Bandit[i] <= 0 {
			t.Errorf("non-positive gmean at %v MTPS", res.MTPS[i])
		}
	}
	if !strings.Contains(res.Render(), "150") {
		t.Error("render incomplete")
	}
}

func TestFig12MultiLevel(t *testing.T) {
	o := tiny()
	o.MaxApps = 1
	res := Fig12(o)
	want := []string{"Stride_Stride", "IPCP", "Stride_Pythia", "Stride_Bandit"}
	if len(res.Kinds) != len(want) {
		t.Fatalf("kinds = %v", res.Kinds)
	}
	for i, k := range want {
		if res.Kinds[i] != k {
			t.Errorf("kind %d = %s, want %s", i, res.Kinds[i], k)
		}
		if res.Norm[i] <= 0 {
			t.Errorf("%s norm = %v", k, res.Norm[i])
		}
	}
}

func TestFig14FourCore(t *testing.T) {
	o := tiny()
	o.MaxApps = 1
	o.Insts = 200_000
	res := Fig14(o)
	if len(res.Kinds) != 5 {
		t.Fatalf("kinds = %v", res.Kinds)
	}
	for i, k := range res.Kinds {
		if res.Norm[i] <= 0.3 || res.Norm[i] > 5 {
			t.Errorf("%s 4-core norm = %.3f implausible", k, res.Norm[i])
		}
	}
}

func TestFig7Panels(t *testing.T) {
	o := tiny()
	panels := Fig7Prefetch(o)
	if len(panels) != 8 { // 2 apps x 4 algorithms
		t.Fatalf("prefetch panels = %d, want 8", len(panels))
	}
	byAlgo := map[string]Fig7Panel{}
	for _, p := range panels {
		if p.App == "mcf06" {
			byAlgo[p.Algo] = p
		}
	}
	if len(byAlgo["DUCB"].Arms) <= len(byAlgo["BestStatic"].Arms) {
		t.Error("DUCB should record more arm switches than BestStatic")
	}
	out := RenderFig7(panels)
	if !strings.Contains(out, "DUCB/mcf06") {
		t.Error("render incomplete")
	}
}

func TestFig5DesignSpace(t *testing.T) {
	o := tiny()
	o.MaxMixes = 1
	o.SMTCycles = 100_000
	res := Fig5(o)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	r := res.Rows[0]
	if r.BestDelta < 0 {
		t.Errorf("best policy (%s) worse than Choi by %.1f%%: the space includes Choi itself",
			r.BestPolicy, r.BestDelta*100)
	}
	if r.WorstDelta > 0 {
		t.Errorf("worst policy better than Choi: %+v", r)
	}
	if r.BestPolicy == "" {
		t.Error("no best policy recorded")
	}
	if !strings.Contains(res.Render(), "Fig. 5") {
		t.Error("render incomplete")
	}
}

func TestTable9Shape(t *testing.T) {
	o := tiny()
	res := Table9(o)
	for _, name := range res.Order {
		s, ok := res.Algos[name]
		if !ok {
			t.Fatalf("missing %s", name)
		}
		if s.GMean < 40 || s.GMean > 120 {
			t.Errorf("%s gmean = %.1f implausible", name, s.GMean)
		}
	}
	if !strings.Contains(res.Render(), "Choi") {
		t.Error("render incomplete")
	}
}

func TestFig13Shape(t *testing.T) {
	o := tiny()
	o.MaxMixes = 3
	res := Fig13(o)
	if len(res.Ratios) != 3 {
		t.Fatalf("ratios = %d", len(res.Ratios))
	}
	for i := 1; i < len(res.Ratios); i++ {
		if res.Ratios[i] < res.Ratios[i-1] {
			t.Error("ratios not sorted")
		}
	}
	if res.GMeanVsChoi <= 0 || res.GMeanVsIC <= 0 {
		t.Error("non-positive gmeans")
	}
	if !strings.Contains(res.Render(), "gmean vs Choi") {
		t.Error("render incomplete")
	}
}

func TestFig15Breakdown(t *testing.T) {
	o := tiny()
	o.MaxMixes = 2
	res := Fig15(o)
	for _, kind := range []string{"Choi", "Bandit"} {
		f := res.Fractions[kind]
		total := f["stalled"] + f["idle"] + f["running"]
		if total < 0.999 || total > 1.001 {
			t.Errorf("%s states sum to %.3f", kind, total)
		}
		sub := f["ROB full"] + f["IQ full"] + f["LQ full"] + f["SQ full"] + f["RF full"]
		if sub > f["stalled"]+1e-9 {
			t.Errorf("%s per-structure stalls exceed total", kind)
		}
	}
	if !strings.Contains(res.Render(), "running") {
		t.Error("render incomplete")
	}
}

func TestAreaPower(t *testing.T) {
	res := AreaPower()
	if res.Prefetch.StorageBytes >= 100 {
		t.Error("prefetch agent storage >= 100B")
	}
	if res.SMT.Arms != 6 {
		t.Error("SMT agent arms wrong")
	}
	out := res.Render()
	for _, want := range []string{"Pythia", "Bandit", "overhead"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestAblationsRun(t *testing.T) {
	o := tiny()
	o.MaxApps = 1
	o.MaxMixes = 1
	if r := AblationNormalization(o); len(r.Rows) != 2 || r.Rows[0].Value <= 0 {
		t.Errorf("normalization ablation: %+v", r)
	}
	if r := AblationGamma(o); len(r.Rows) != 5 {
		t.Errorf("gamma ablation: %+v", r)
	}
	if r := AblationArms(o); len(r.Rows) != 3 {
		t.Errorf("arms ablation: %+v", r)
	}
	if r := AblationStepRR(o); len(r.Rows) != 4 {
		t.Errorf("step-RR ablation: %+v", r)
	}
}

func TestAblationRRRestartRuns(t *testing.T) {
	o := tiny()
	o.MaxApps = 1
	o.Insts = 200_000
	r := AblationRRRestart(o)
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Value <= 0 {
			t.Errorf("%s: non-positive sum-IPC", row.Config)
		}
	}
}

func TestExtrasRuns(t *testing.T) {
	o := tiny()
	o.MaxApps = 1
	res := Extras(o)
	if res.BOPNorm <= 0 || res.BanditNorm <= 0 || res.MetaNorm <= 0 {
		t.Errorf("non-positive gmeans: %+v", res)
	}
	if len(res.MetaLevels) == 0 {
		t.Error("no meta levels recorded")
	}
	if res.ARPAIPC <= 0 || res.ChoiIPC <= 0 || res.BanditSMTIPC <= 0 {
		t.Errorf("SMT extras non-positive: %+v", res)
	}
	if !strings.Contains(res.Render(), "hierarchical") {
		t.Error("render incomplete")
	}
}

func TestRewardMetricsRuns(t *testing.T) {
	o := tiny()
	o.MaxMixes = 2
	res := RewardMetrics(o)
	if len(res.Modes) != 3 {
		t.Fatalf("modes = %v", res.Modes)
	}
	for i, m := range res.Modes {
		if res.SumIPC[i] <= 0 || res.Weighted[i] <= 0 || res.Harmonic[i] <= 0 {
			t.Errorf("%s: non-positive metrics", m)
		}
		if res.Fairness[i] <= 0 || res.Fairness[i] > 1 {
			t.Errorf("%s: fairness %v outside (0,1]", m, res.Fairness[i])
		}
	}
	if !strings.Contains(res.Render(), "harmonic") {
		t.Error("render incomplete")
	}
}

func TestTuningSweep(t *testing.T) {
	o := tiny()
	o.MaxApps = 1
	res := Tuning(o)
	if len(res.Rows) != 18 { // 3 c x 2 gamma x 3 step scales
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Best.GMeanIPC <= 0 {
		t.Error("no best combination")
	}
	found := false
	for _, r := range res.Rows {
		if r.GMeanIPC == res.Best.GMeanIPC {
			found = true
		}
		if r.GMeanIPC <= 0 {
			t.Errorf("%s: non-positive gmean", r.Label())
		}
	}
	if !found {
		t.Error("best not among rows")
	}
	if !strings.Contains(res.Render(), "best:") {
		t.Error("render incomplete")
	}
}

func TestExperimentsRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) != 19 {
		t.Fatalf("got %d experiments", len(exps))
	}
	ids := map[string]bool{}
	for _, e := range exps {
		if ids[e.ID] {
			t.Errorf("duplicate id %s", e.ID)
		}
		ids[e.ID] = true
		if e.Desc == "" || e.Run == nil {
			t.Errorf("%s incomplete", e.ID)
		}
	}
	if _, ok := Find("fig8"); !ok {
		t.Error("Find(fig8) failed")
	}
	if _, ok := Find("nope"); ok {
		t.Error("Find accepted unknown id")
	}
}

func TestRunSingleExperimentViaRegistry(t *testing.T) {
	e, ok := Find("areapower")
	if !ok {
		t.Fatal("areapower not registered")
	}
	if out, _ := e.Run(tiny()); !strings.Contains(out, "storage") {
		t.Errorf("unexpected output: %s", out)
	}
}

// TestExperimentCSV: a registry entry returns its CSV alongside its text
// when it has a tabular form, and "" when it has none.
func TestExperimentCSV(t *testing.T) {
	o := tiny()
	o.MaxApps = 1
	fig10, _ := Find("fig10")
	text, csv := fig10.Run(o)
	if text == "" || !strings.Contains(csv, "mtps,pythia,bandit") {
		t.Errorf("fig10: text %d bytes, CSV header %q", len(text), csv[:min(len(csv), 60)])
	}
	areapower, _ := Find("areapower")
	if text, csv := areapower.Run(o); text == "" || csv != "" {
		t.Errorf("areapower: text %d bytes, CSV %q; want text and no CSV", len(text), csv)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
