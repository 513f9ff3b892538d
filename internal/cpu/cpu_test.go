package cpu

import (
	"context"
	"errors"
	"testing"

	"microbandit/internal/core"
	"microbandit/internal/mem"
	"microbandit/internal/prefetch"
	"microbandit/internal/trace"
)

// aluGen emits only ALU instructions.
type aluGen struct{ pc uint64 }

func (g *aluGen) Name() string { return "alu" }
func (g *aluGen) Next(i *trace.Inst) {
	g.pc += 4
	*i = trace.Inst{PC: g.pc, Kind: trace.KindALU}
}

// branchyGen emits mispredicted branches every k instructions.
type branchyGen struct {
	pc, n uint64
	every uint64
}

func (g *branchyGen) Name() string { return "branchy" }
func (g *branchyGen) Next(i *trace.Inst) {
	g.pc += 4
	g.n++
	if g.n%g.every == 0 {
		*i = trace.Inst{PC: g.pc, Kind: trace.KindBranch, Mispredict: true}
		return
	}
	*i = trace.Inst{PC: g.pc, Kind: trace.KindALU}
}

// streamGen scans memory sequentially in 16-byte elements (four accesses
// per cache line, like a real array scan) with one load per aluPer+1
// instructions.
type streamGen struct {
	pc, pos uint64
	n       uint64
	aluPer  uint64
}

func (g *streamGen) Name() string { return "stream" }
func (g *streamGen) Next(i *trace.Inst) {
	g.pc += 4
	g.n++
	if g.n%(g.aluPer+1) == 0 {
		g.pos += 16
		*i = trace.Inst{PC: 0x1000, Addr: 0x10_0000_0000 + g.pos, Kind: trace.KindLoad}
		return
	}
	*i = trace.Inst{PC: g.pc, Kind: trace.KindALU}
}

func newCore(gen trace.Generator) *Core {
	return New(DefaultConfig(), mem.NewHierarchy(mem.DefaultConfig()), gen)
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{}, mem.NewHierarchy(mem.DefaultConfig()), &aluGen{})
}

func TestIPCBoundedByCommitWidth(t *testing.T) {
	c := newCore(&aluGen{})
	c.RunInsts(100_000)
	ipc := c.IPC()
	if ipc > float64(DefaultConfig().CommitWidth)+0.01 {
		t.Errorf("IPC %.2f exceeds commit width", ipc)
	}
	// Pure ALU code should saturate commit width (within a few percent).
	if ipc < 3.8 {
		t.Errorf("ALU-only IPC = %.2f, want ~4", ipc)
	}
}

func TestMispredictionsHurt(t *testing.T) {
	clean := newCore(&aluGen{})
	clean.RunInsts(50_000)
	dirty := newCore(&branchyGen{every: 20})
	dirty.RunInsts(50_000)
	if dirty.IPC() >= clean.IPC()*0.8 {
		t.Errorf("mispredicts: IPC %.2f vs clean %.2f — penalty too weak", dirty.IPC(), clean.IPC())
	}
}

func TestMemoryBoundIsSlower(t *testing.T) {
	cpuBound := newCore(&aluGen{})
	cpuBound.RunInsts(50_000)
	memBound := newCore(&streamGen{aluPer: 1})
	memBound.RunInsts(50_000)
	if memBound.IPC() >= cpuBound.IPC()*0.7 {
		t.Errorf("memory-bound IPC %.2f not clearly below CPU-bound %.2f",
			memBound.IPC(), cpuBound.IPC())
	}
}

func TestDependentLoadsSerialize(t *testing.T) {
	mkChase := func(dep bool) trace.Generator {
		app, err := trace.ByName("canneal")
		if err != nil {
			t.Fatal(err)
		}
		g := app.New(1)
		if !dep {
			return stripDeps{g}
		}
		return g
	}
	depCore := newCore(mkChase(true))
	depCore.RunInsts(50_000)
	indCore := newCore(mkChase(false))
	indCore.RunInsts(50_000)
	if depCore.IPC() >= indCore.IPC() {
		t.Errorf("dependent chase IPC %.3f >= independent %.3f", depCore.IPC(), indCore.IPC())
	}
}

// stripDeps removes DependsOnPrev to model independent random loads.
type stripDeps struct{ trace.Generator }

func (s stripDeps) Next(i *trace.Inst) {
	s.Generator.Next(i)
	i.DependsOnPrev = false
}

func TestPrefetchingHelpsStreams(t *testing.T) {
	// A stream light enough not to saturate the DRAM channel: prefetches
	// run ahead of demand and land timely; the gain comes from bypassing
	// the limited demand MLP (MSHRs).
	base := newCore(&streamGen{aluPer: 15})
	baseR := NewRunner(base, prefetch.Null{}, nil, nil)
	baseR.Run(400_000)

	pf := newCore(&streamGen{aluPer: 15})
	ens := prefetch.NewTable7Ensemble()
	ens.Apply(9) // stream degree 15
	pfR := NewRunner(pf, ens, nil, nil)
	pfR.Run(400_000)

	if pf.IPC() < base.IPC()*1.03 {
		t.Errorf("stream prefetching: IPC %.3f vs %.3f — expected a gain",
			pf.IPC(), base.IPC())
	}
	cl := pf.Hier().Classify()
	if cl.Timely == 0 {
		t.Error("no timely prefetches recorded")
	}

	// A dense (bandwidth-saturating) stream still gains — late prefetches
	// hide most of the latency — and by a larger factor, since demand MLP
	// is the bottleneck without prefetching.
	baseD := newCore(&streamGen{aluPer: 3})
	NewRunner(baseD, prefetch.Null{}, nil, nil).Run(200_000)
	pfD := newCore(&streamGen{aluPer: 3})
	ensD := prefetch.NewTable7Ensemble()
	ensD.Apply(9)
	NewRunner(pfD, ensD, nil, nil).Run(200_000)
	if pfD.IPC() < baseD.IPC()*1.2 {
		t.Errorf("dense stream prefetching: IPC %.3f vs %.3f — expected >20%% gain",
			pfD.IPC(), baseD.IPC())
	}
}

func TestBanditRunnerProtocol(t *testing.T) {
	c := newCore(&streamGen{aluPer: 1})
	ens := prefetch.NewTable7Ensemble()
	agent := core.MustNew(core.Config{
		Arms:      ens.NumArms(),
		Policy:    core.NewDUCB(core.PrefetchC, core.PrefetchGamma),
		Normalize: true,
		Seed:      1,
	})
	r := NewRunner(c, ens, agent, ens)
	r.StepL2 = 200 // shorter steps for the test
	r.RecordArms()
	r.Run(400_000)

	if r.Steps() < 20 {
		t.Fatalf("only %d bandit steps completed", r.Steps())
	}
	if int(r.Steps()) != agent.StepsTaken() {
		t.Errorf("runner steps %d != agent steps %d", r.Steps(), agent.StepsTaken())
	}
	if len(r.ArmTrace) == 0 {
		t.Fatal("no arm trace recorded")
	}
	// The initial round-robin phase must have tried every arm.
	seen := map[int]bool{}
	for _, s := range r.ArmTrace[:min(len(r.ArmTrace), ens.NumArms()+1)] {
		seen[s.Arm] = true
	}
	if len(seen) < ens.NumArms() {
		t.Errorf("RR phase tried only %d arms: %v", len(seen), r.ArmTrace[:ens.NumArms()])
	}
	// Arm activations happen at least SelectLatency after step boundaries
	// (except the initial application at cycle 0).
	for _, s := range r.ArmTrace[1:] {
		if s.Cycle == 0 {
			t.Error("non-initial arm applied at cycle 0")
		}
	}
}

func TestBanditBeatsNoPrefetchOnStream(t *testing.T) {
	run := func(withBandit bool) float64 {
		c := newCore(&streamGen{aluPer: 2})
		if !withBandit {
			r := NewRunner(c, prefetch.Null{}, nil, nil)
			r.Run(600_000)
			return c.IPC()
		}
		ens := prefetch.NewTable7Ensemble()
		agent := core.MustNew(core.Config{
			Arms:      ens.NumArms(),
			Policy:    core.NewDUCB(core.PrefetchC, core.PrefetchGamma),
			Normalize: true,
			Seed:      3,
		})
		r := NewRunner(c, ens, agent, ens)
		r.StepL2 = 250
		r.Run(600_000)
		return c.IPC()
	}
	bandit, none := run(true), run(false)
	if bandit < none*1.15 {
		t.Errorf("bandit IPC %.3f vs no-prefetch %.3f — expected clear win", bandit, none)
	}
}

func TestRunnerDeterminism(t *testing.T) {
	run := func() (float64, int64) {
		app, err := trace.ByName("lbm17")
		if err != nil {
			t.Fatal(err)
		}
		c := newCore(app.New(7))
		ens := prefetch.NewTable7Ensemble()
		agent := core.MustNew(core.Config{
			Arms: ens.NumArms(), Policy: core.NewDUCB(0.04, 0.999),
			Normalize: true, Seed: 9,
		})
		r := NewRunner(c, ens, agent, ens)
		r.StepL2 = 200
		r.Run(150_000)
		return c.IPC(), c.Cycles()
	}
	ipc1, cy1 := run()
	ipc2, cy2 := run()
	if ipc1 != ipc2 || cy1 != cy2 {
		t.Errorf("non-deterministic: %.6f/%d vs %.6f/%d", ipc1, cy1, ipc2, cy2)
	}
}

func TestMultiCoreContention(t *testing.T) {
	mkRunner := func(shared *mem.Shared, seed uint64) *Runner {
		app, err := trace.ByName("ligra-bfs") // DRAM-heavy
		if err != nil {
			t.Fatal(err)
		}
		h := mem.NewCoreHierarchy(mem.DefaultConfig(), shared)
		c := New(DefaultConfig(), h, app.New(seed))
		return NewRunner(c, prefetch.Null{}, nil, nil)
	}
	// Single core alone.
	solo := mkRunner(mem.NewShared(mem.DefaultConfig(), 1), 1)
	RunMultiCore(context.Background(), []*Runner{solo}, 60_000)
	soloIPC := solo.Core.IPC()

	// Four cores sharing one channel.
	shared := mem.NewShared(mem.DefaultConfig(), 4)
	var rs []*Runner
	for i := uint64(0); i < 4; i++ {
		rs = append(rs, mkRunner(shared, 1+i))
	}
	RunMultiCore(context.Background(), rs, 60_000)
	perCore := SumIPC(rs) / 4

	if perCore >= soloIPC {
		t.Errorf("no contention: per-core %.3f vs solo %.3f", perCore, soloIPC)
	}
	for _, r := range rs {
		if r.Core.Insts() != 60_000 {
			t.Errorf("core ran %d insts, want 60000", r.Core.Insts())
		}
	}
}

// TestMultiCoreCancelled pins the cancellation contract: with a context
// that is already done, RunMultiCore returns its error after at most
// one batch per core instead of running the budget out.
func TestMultiCoreCancelled(t *testing.T) {
	app, err := trace.ByName("ligra-bfs")
	if err != nil {
		t.Fatal(err)
	}
	shared := mem.NewShared(mem.DefaultConfig(), 4)
	var rs []*Runner
	for i := uint64(0); i < 4; i++ {
		c := New(DefaultConfig(), mem.NewCoreHierarchy(mem.DefaultConfig(), shared), app.New(1+i))
		rs = append(rs, NewRunner(c, prefetch.Null{}, nil, nil))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := RunMultiCore(ctx, rs, 60_000); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunMultiCore = %v, want context.Canceled", err)
	}
	for i, r := range rs {
		if n := r.Core.Insts(); n > multiCoreBatch {
			t.Errorf("core %d ran %d insts after cancellation, want at most %d", i, n, multiCoreBatch)
		}
	}
}

func TestSumIPCEmpty(t *testing.T) {
	if SumIPC(nil) != 0 {
		t.Error("SumIPC(nil) != 0")
	}
	RunMultiCore(context.Background(), nil, 10) // must not panic
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func BenchmarkCoreALU(b *testing.B) {
	c := newCore(&aluGen{})
	b.ResetTimer()
	c.RunInsts(int64(b.N))
}

func BenchmarkCoreStreamWithEnsemble(b *testing.B) {
	c := newCore(&streamGen{aluPer: 2})
	ens := prefetch.NewTable7Ensemble()
	ens.Apply(5)
	NewRunner(c, ens, nil, nil)
	b.ResetTimer()
	c.RunInsts(int64(b.N))
}

// TestRunnerHonorsTargetAware: with an LLC-only arm active, runner
// prefetches must land in the LLC without polluting the L2.
func TestRunnerHonorsTargetAware(t *testing.T) {
	c := newCore(&streamGen{aluPer: 15})
	ext := prefetch.NewExtendedEnsemble()
	ext.Apply(12) // stream degree 15, LLC-only
	r := NewRunner(c, ext, nil, nil)
	r.Run(300_000)
	llc := c.Hier().LLC().Stats()
	l2 := c.Hier().L2().Stats()
	if llc.PrefFills == 0 {
		t.Fatal("no LLC prefetch fills under an LLC-only arm")
	}
	if l2.PrefFills != 0 {
		t.Errorf("L2 received %d prefetch fills under an LLC-only arm", l2.PrefFills)
	}
	if got := c.Hier().Classify().Timely; got == 0 {
		t.Error("LLC-only prefetching produced no timely prefetches")
	}
}

// TestRunnerRebindsL2Pf: L2Pf is a public field, so a prefetcher set
// after NewRunner must still have its optional interfaces honored once
// Run starts.
func TestRunnerRebindsL2Pf(t *testing.T) {
	c := newCore(&streamGen{aluPer: 15})
	r := NewRunner(c, prefetch.Null{}, nil, nil)
	ext := prefetch.NewExtendedEnsemble()
	ext.Apply(12) // stream degree 15, LLC-only
	r.L2Pf = ext
	r.Run(300_000)
	if c.Hier().LLC().Stats().PrefFills == 0 {
		t.Fatal("no LLC prefetch fills under an LLC-only arm set after NewRunner")
	}
	if n := c.Hier().L2().Stats().PrefFills; n != 0 {
		t.Errorf("L2 received %d prefetch fills under an LLC-only arm set after NewRunner", n)
	}
}
