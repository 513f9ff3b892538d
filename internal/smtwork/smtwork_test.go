package smtwork

import (
	"math"
	"testing"
	"testing/quick"

	"microbandit/internal/xrand"
)

func TestUopKindString(t *testing.T) {
	want := map[UopKind]string{
		UopALU: "alu", UopFP: "fp", UopLoad: "load",
		UopStore: "store", UopBranch: "branch", UopKind(9): "uop(9)",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
}

// TestGenDeterminism: two generators with one seed give one stream, and
// the stream does not depend on the batch sizes Fill is called with.
func TestGenDeterminism(t *testing.T) {
	for _, p := range Profiles() {
		a, b := NewGen(p, 42), NewGen(p, 42)
		whole := make([]Uop, 1000)
		a.Fill(whole)
		rng := xrand.New(uint64(len(p.Name)))
		for i := 0; i < len(whole); {
			n := min(1+rng.Intn(70), len(whole)-i)
			batch := make([]Uop, n)
			b.Fill(batch)
			for j, u := range batch {
				if u != whole[i+j] {
					t.Fatalf("%s: uop %d differs", p.Name, i+j)
				}
			}
			i += n
		}
		if a.rng.State() != b.rng.State() || a.sinceLoad != b.sinceLoad {
			t.Fatalf("%s: generator state differs after the same stream", p.Name)
		}
	}
}

func TestGenMixMatchesProfile(t *testing.T) {
	for _, p := range Profiles() {
		g := NewGen(p, 7)
		const n = 50000
		counts := map[UopKind]int{}
		var chained int
		us := make([]Uop, n)
		g.Fill(us)
		for _, u := range us {
			counts[u.Kind]++
			if u.Kind == UopLoad && u.DepDist > 0 {
				chained++
			}
			if u.Lat < 1 {
				t.Fatalf("%s: non-positive latency", p.Name)
			}
			if u.Kind != UopStore && u.DrainLat != 0 {
				t.Fatalf("%s: non-store with drain latency", p.Name)
			}
			if u.Mispredict && u.Kind != UopBranch {
				t.Fatalf("%s: non-branch mispredict", p.Name)
			}
		}
		check := func(kind UopKind, want float64) {
			got := float64(counts[kind]) / n
			if math.Abs(got-want) > 0.02 {
				t.Errorf("%s: %v fraction = %.3f, want %.3f", p.Name, kind, got, want)
			}
		}
		check(UopLoad, p.LoadFrac)
		check(UopStore, p.StoreFrac)
		check(UopBranch, p.BranchFrac)
		check(UopFP, p.FPFrac)
	}
}

func TestMemoryCharacterDiffers(t *testing.T) {
	avgLoadLat := func(name string) float64 {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g := NewGen(p, 3)
		var sum, n float64
		us := make([]Uop, 50000)
		g.Fill(us)
		for _, u := range us {
			if u.Kind == UopLoad {
				sum += float64(u.Lat)
				n++
			}
		}
		return sum / n
	}
	cacheResident := avgLoadLat("exchange2")
	memBound := avgLoadLat("mcf")
	if cacheResident >= 10 {
		t.Errorf("exchange2 avg load latency %.1f, want cache-resident", cacheResident)
	}
	if memBound < 5*cacheResident {
		t.Errorf("mcf (%.1f) not clearly slower than exchange2 (%.1f)", memBound, cacheResident)
	}
}

func TestLbmStoreDrainPressure(t *testing.T) {
	p, _ := ByName("lbm")
	g := NewGen(p, 5)
	var slowDrains, stores int
	us := make([]Uop, 50000)
	g.Fill(us)
	for _, u := range us {
		if u.Kind == UopStore {
			stores++
			if u.DrainLat > 50 {
				slowDrains++
			}
		}
	}
	frac := float64(slowDrains) / float64(stores)
	if math.Abs(frac-p.StoreDrainDRAMProb) > 0.05 {
		t.Errorf("lbm slow-drain fraction = %.2f, want ~%.2f", frac, p.StoreDrainDRAMProb)
	}
}

func TestCatalogStructure(t *testing.T) {
	ps := Profiles()
	if len(ps) != 22 {
		t.Fatalf("catalog has %d profiles, want 22", len(ps))
	}
	seen := map[string]bool{}
	for _, p := range ps {
		if seen[p.Name] {
			t.Errorf("duplicate profile %q", p.Name)
		}
		seen[p.Name] = true
		total := p.LoadFrac + p.StoreFrac + p.BranchFrac + p.FPFrac
		if total >= 1 {
			t.Errorf("%s: instruction fractions sum to %.2f", p.Name, total)
		}
	}
	if _, err := ByName("lbm"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("ByName accepted unknown profile")
	}
}

func TestMixes(t *testing.T) {
	mixes := Mixes()
	if len(mixes) != 231 { // C(22,2)
		t.Fatalf("got %d mixes, want 231", len(mixes))
	}
	seen := map[string]bool{}
	for _, m := range mixes {
		if seen[m.Name()] {
			t.Errorf("duplicate mix %s", m.Name())
		}
		seen[m.Name()] = true
	}
	tune := TuneMixes()
	if len(tune) != 45 { // C(10,2)
		t.Fatalf("got %d tune mixes, want 45", len(tune))
	}
}

// Property: DepDist never points beyond the uop's own position history cap
// and chains only occur on loads when configured.
func TestQuickUopInvariants(t *testing.T) {
	f := func(seed uint64, profIdx uint8) bool {
		ps := Profiles()
		p := ps[int(profIdx)%len(ps)]
		g := NewGen(p, seed)
		us := make([]Uop, 300)
		g.Fill(us)
		for _, u := range us {
			if u.DepDist < 0 || u.DepDist > 200 {
				return false
			}
			if u.DrainLat < 0 || u.Lat < 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// BenchmarkGenFill times one uop of lbm's stream, generated in batches of
// 64 as the SMT pipeline's fetch stage draws them.
func BenchmarkGenFill(b *testing.B) {
	p, _ := ByName("lbm")
	g := NewGen(p, 1)
	var us [64]Uop
	b.ResetTimer()
	for i := 0; i < b.N; i += len(us) {
		g.Fill(us[:min(len(us), b.N-i)])
	}
	sinkUop = us[0]
}

var sinkUop Uop

// floatGen is the Float64/Bool formulation of Gen.Fill that the integer
// thresholds replace, kept as the oracle for their edge cases.
type floatGen struct {
	p         Profile
	rng       *xrand.Rand
	sinceLoad int
}

func (g *floatGen) next(u *Uop) {
	*u = Uop{Lat: 1}
	x := g.rng.Float64()
	p := &g.p
	switch {
	case x < p.LoadFrac:
		u.Kind = UopLoad
		u.Lat = g.memLatency()
		if g.rng.Bool(p.LoadChainProb) && g.sinceLoad > 0 {
			u.DepDist = g.sinceLoad
		}
		g.sinceLoad = 0
	case x < p.LoadFrac+p.StoreFrac:
		u.Kind = UopStore
		if g.rng.Bool(p.StoreDrainDRAMProb) {
			u.DrainLat = g.jitter(p.MemLat)
		} else {
			u.DrainLat = 8
		}
		g.sinceLoad++
	case x < p.LoadFrac+p.StoreFrac+p.BranchFrac:
		u.Kind = UopBranch
		u.Mispredict = g.rng.Bool(p.MispredictProb)
		g.sinceLoad++
	case x < p.LoadFrac+p.StoreFrac+p.BranchFrac+p.FPFrac:
		u.Kind = UopFP
		u.Lat = p.FPLat
		g.sinceLoad++
	default:
		u.Kind = UopALU
		g.sinceLoad++
	}
	if u.DepDist == 0 && g.rng.Bool(p.DepProb) {
		u.DepDist = 1 + g.rng.Intn(2*p.DepDistMean)
	}
}

func (g *floatGen) memLatency() int64 {
	x := g.rng.Float64()
	switch {
	case x < g.p.L1HitProb:
		return 4
	case x < g.p.L1HitProb+g.p.L2HitProb:
		return 16
	default:
		return g.jitter(g.p.MemLat)
	}
}

func (g *floatGen) jitter(lat int64) int64 {
	span := lat / 2
	if span <= 0 {
		return lat
	}
	return lat - span/2 + int64(g.rng.Intn(int(span)))
}

// TestThresholdDrawsMatchFloat: the integer-threshold draws give the same
// uops and consume the same words as the Float64/Bool formulation, for
// probabilities at and beyond the edges (0, 1, NaN, negative, the float
// neighbours of 0 and 1) and for cumulative mixes that reach or pass 1.
func TestThresholdDrawsMatchFloat(t *testing.T) {
	nan := math.NaN()
	below1 := math.Nextafter(1, 0)
	tiny := math.SmallestNonzeroFloat64
	cases := map[string]Profile{
		"zero": {},
		"ones": {LoadFrac: 1, StoreFrac: 1, BranchFrac: 1, FPFrac: 1, MispredictProb: 1,
			L1HitProb: 1, L2HitProb: 1, StoreDrainDRAMProb: 1, DepProb: 1, LoadChainProb: 1},
		"nan": {LoadFrac: nan, StoreFrac: 0.2, BranchFrac: 0.2, MispredictProb: nan,
			L1HitProb: nan, StoreDrainDRAMProb: nan, DepProb: nan, LoadChainProb: nan},
		"nan-late": {LoadFrac: 0.3, StoreFrac: 0.2, BranchFrac: nan, FPFrac: 0.1,
			L1HitProb: 0.5, L2HitProb: nan, MispredictProb: 0.5, DepProb: 0.5},
		"negative": {LoadFrac: -0.2, StoreFrac: 0.5, BranchFrac: -1, FPFrac: 0.4,
			L1HitProb: -0.5, L2HitProb: 0.9, MispredictProb: -1, DepProb: -0.1, LoadChainProb: 2},
		"sum-to-one": {LoadFrac: 0.25, StoreFrac: 0.25, BranchFrac: 0.25, FPFrac: 0.25,
			MispredictProb: 0.5, L1HitProb: 0.5, L2HitProb: 0.5, DepProb: 0.5, LoadChainProb: 0.5},
		"sum-past-one": {LoadFrac: 0.6, StoreFrac: 0.6, BranchFrac: 0.3, FPFrac: 0.7,
			MispredictProb: 0.3, L1HitProb: 0.7, L2HitProb: 0.7, StoreDrainDRAMProb: 0.5, DepProb: 0.7},
		"float-edges": {LoadFrac: tiny, StoreFrac: below1, BranchFrac: tiny, FPFrac: tiny,
			MispredictProb: below1, L1HitProb: tiny, L2HitProb: below1,
			StoreDrainDRAMProb: tiny, DepProb: below1, LoadChainProb: below1},
		"thirds": {LoadFrac: 1.0 / 3, StoreFrac: 1.0 / 3, BranchFrac: 0.1, FPFrac: 0.1,
			MispredictProb: 1.0 / 3, L1HitProb: 1.0 / 3, L2HitProb: 1.0 / 3,
			StoreDrainDRAMProb: 1.0 / 3, DepProb: 1.0 / 3, LoadChainProb: 1.0 / 3},
	}
	for _, p := range Profiles() {
		cases[p.Name] = p
	}
	for name, p := range cases {
		for _, seed := range []uint64{1, 99} {
			g := NewGen(p, seed)
			ref := &floatGen{p: g.Profile(), rng: xrand.New(seed)}
			// Batches of 1 to 64 uops: the stream must not depend on
			// where a batch ends.
			var got [64]Uop
			for i := 0; i < 20000; {
				batch := got[:1+i%len(got)]
				g.Fill(batch)
				for _, u := range batch {
					var want Uop
					ref.next(&want)
					if u != want {
						t.Fatalf("%s/%d: uop %d = %+v, want %+v", name, seed, i, u, want)
					}
					i++
				}
			}
			if g.rng.State() != ref.rng.State() {
				t.Fatalf("%s/%d: generators drew different words", name, seed)
			}
		}
	}
}

// TestMixThresholdBoundary: the threshold sits exactly where the float
// test flips, which random words almost never probe. For every top-53-bit
// value k at the boundary, k < mixThreshold(c) iff k·2^-53 < c.
func TestMixThresholdBoundary(t *testing.T) {
	cs := []float64{math.NaN(), math.Inf(-1), -1, 0, math.SmallestNonzeroFloat64,
		0x1p-60, 0x1p-53, 1.0 / 3, 0.1, 0.5, 0.6 + 0.6, math.Nextafter(1, 0), 1, math.Inf(1)}
	for _, c := range cs {
		thr := mixThreshold(c)
		for _, k := range []uint64{thr - 2, thr - 1, thr, thr + 1, 0, 1<<53 - 1} {
			if k >= 1<<53 {
				continue
			}
			if got, want := k < thr, float64(k)*(1.0/(1<<53)) < c; got != want {
				t.Errorf("c=%v k=%d: threshold test %v, float test %v", c, k, got, want)
			}
		}
	}
}
