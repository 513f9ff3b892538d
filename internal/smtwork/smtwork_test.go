package smtwork

import (
	"math"
	"testing"
	"testing/quick"
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

func TestGenDeterminism(t *testing.T) {
	for _, p := range Profiles() {
		a, b := NewGen(p, 42), NewGen(p, 42)
		for i := 0; i < 1000; i++ {
			var ua, ub Uop
			a.Next(&ua)
			b.Next(&ub)
			if ua != ub {
				t.Fatalf("%s: uop %d differs", p.Name, i)
			}
		}
	}
}

func TestGenMixMatchesProfile(t *testing.T) {
	for _, p := range Profiles() {
		g := NewGen(p, 7)
		const n = 50000
		counts := map[UopKind]int{}
		var chained int
		for i := 0; i < n; i++ {
			var u Uop
			g.Next(&u)
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
		for i := 0; i < 50000; i++ {
			var u Uop
			g.Next(&u)
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
	for i := 0; i < 50000; i++ {
		var u Uop
		g.Next(&u)
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
		for i := 0; i < 300; i++ {
			var u Uop
			g.Next(&u)
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

func BenchmarkGenNext(b *testing.B) {
	p, _ := ByName("lbm")
	g := NewGen(p, 1)
	var u Uop
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next(&u)
	}
	sinkUop = u
}

var sinkUop Uop
