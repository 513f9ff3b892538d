package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs in 100 draws", same)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(7)
	for _, n := range []int{1, 2, 3, 10, 64, 1000} {
		for i := 0; i < 2000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(11)
	const n, draws = 8, 80000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 0.05*want {
			t.Errorf("bucket %d: got %d, want ~%.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	sum := 0.0
	const draws = 100000
	for i := 0; i < draws; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
		sum += v
	}
	mean := sum / draws
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean = %v, want ~0.5", mean)
	}
}

func TestBool(t *testing.T) {
	r := New(5)
	if r.Bool(0) {
		t.Error("Bool(0) returned true")
	}
	if !r.Bool(1) {
		t.Error("Bool(1) returned false")
	}
	hits := 0
	const draws = 50000
	for i := 0; i < draws; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / draws
	if math.Abs(frac-0.25) > 0.02 {
		t.Errorf("Bool(0.25) hit rate = %v", frac)
	}
}

// coinProbes are the p values the coin must flip exactly like Bool at:
// both zeros, the smallest subnormal, the 2^-53 grid step, the middle,
// the largest p below 1, one, infinities, and NaN.
var coinProbes = []float64{
	0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 0x1p-53, 0.5,
	1 - 0x1p-53, 1, math.Inf(1), math.Inf(-1), math.NaN(),
	0.02, 0.1, 0.15, 0.3, 0.55,
}

// flip draws a word when the coin asks for one, as the trace fill
// kernel does, and returns the outcome.
func flip(r *Rand, c Coin) bool {
	var u uint64
	if c.Draws() {
		u = r.Uint64()
	}
	return c.Hit(u)
}

// TestCoinMatchesBool pins Coin against Bool: over 1e6 flips per p the
// outcomes agree one for one, and both generators end in the same state,
// so the coin draws exactly as many words as Bool does.
func TestCoinMatchesBool(t *testing.T) {
	const draws = 1_000_000
	for _, p := range coinProbes {
		a, b := New(29), New(29)
		c := NewCoin(p)
		for i := 0; i < draws; i++ {
			if x, y := a.Bool(p), flip(b, c); x != y {
				t.Fatalf("p=%v flip %d: Bool %v, coin %v", p, i, x, y)
			}
		}
		if a.State() != b.State() {
			t.Fatalf("p=%v: generator states diverged after %d flips", p, draws)
		}
	}
}

// TestCoinThresholdBoundary checks the threshold against Float64's
// definition at the boundary itself: the largest hitting word and the
// smallest missing word must straddle p.
func TestCoinThresholdBoundary(t *testing.T) {
	float := func(u uint64) float64 { return float64(u>>11) * (1.0 / (1 << 53)) }
	for _, p := range coinProbes {
		if !(p > 0 && p < 1) {
			continue
		}
		c := NewCoin(p)
		if c.thr == 0 || c.thr&(1<<11-1) != 0 {
			t.Fatalf("p=%v: threshold %#x is not a positive multiple of 2^11", p, c.thr)
		}
		if last := c.thr - 1; !(float(last) < p) || !c.Hit(last) {
			t.Errorf("p=%v: word %#x should hit", p, last)
		}
		if !(float(c.thr) >= p) || c.Hit(c.thr) {
			t.Errorf("p=%v: word %#x should miss", p, c.thr)
		}
	}
}

// TestStepMatchesUint64 pins the register-resident step against the
// generator's own stream.
func TestStepMatchesUint64(t *testing.T) {
	r := New(31)
	s := r.State()
	for i := 0; i < 1000; i++ {
		var out uint64
		out, s[0], s[1], s[2], s[3] = Step(s[0], s[1], s[2], s[3])
		if want := r.Uint64(); out != want {
			t.Fatalf("step %d: %#x, Uint64 %#x", i, out, want)
		}
	}
	if s != r.State() {
		t.Fatal("states diverged")
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(9)
	const draws = 200000
	var sum, sumsq float64
	for i := 0; i < draws; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / draws
	variance := sumsq/draws - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestGeometric(t *testing.T) {
	r := New(19)
	if got := r.Geometric(1); got != 0 {
		t.Errorf("Geometric(1) = %d, want 0", got)
	}
	const p, draws = 0.2, 100000
	sum := 0.0
	for i := 0; i < draws; i++ {
		sum += float64(r.Geometric(p))
	}
	mean := sum / draws
	want := (1 - p) / p // mean of failures-before-success geometric
	if math.Abs(mean-want) > 0.1*want {
		t.Errorf("geometric mean = %v, want ~%v", mean, want)
	}
}

// Property: Intn is always within range for arbitrary seeds and bounds.
func TestQuickIntnInRange(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		r := New(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: identical seeds yield identical Float64 streams.
func TestQuickDeterministicStreams(t *testing.T) {
	f := func(seed uint64) bool {
		a, b := New(seed), New(seed)
		for i := 0; i < 20; i++ {
			if a.Float64() != b.Float64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Uint64()
	}
	_ = sink
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink = r.Intn(11)
	}
	_ = sink
}
