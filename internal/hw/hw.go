// Package hw provides the analytical storage / area / power / latency model
// for the Micro-Armed Bandit hardware agent (paper §5.4 and §6.5) and for
// the prefetchers it is compared against.
//
// The paper derives its numbers from CACTI (tables), a published 15 nm FPU
// datapoint, and the Stillmaker & Baas scaling equations down to 10 nm.
// Those tools are not reproducible offline, so this package encodes the
// paper's published end results as model constants and reproduces the
// arithmetic around them: storage scaling with the number of arms, the
// conservative 500-cycle arm-selection latency, and the relative area /
// power overhead on a server-class 40-core die.
package hw

import "fmt"

// Storage sizes in bytes of the paper's table of comparisons (§7.2.1).
const (
	// BytesPerArm is the per-arm storage of the paper's Bandit agent
	// (§5.4): a single-precision float for the running reward plus an
	// unsigned integer for the (discounted) selection count. It is the
	// paper's format, taken as a constant: the simulated agent's
	// core.Tables hold two float64s per arm, 16 B (176 B at 11 arms).
	BytesPerArm = 8

	// PythiaStorageBytes is Pythia's state-action value storage (25.5 KB
	// total framework storage; 24 KB is the Q-value store alone).
	PythiaStorageBytes = 25 * 1024
	// MLOPStorageBytes is MLOP's storage overhead.
	MLOPStorageBytes = 8 * 1024
	// BingoStorageBytes is Bingo's storage overhead.
	BingoStorageBytes = 46 * 1024
	// EnsembleStorageBytes bounds the storage of the next-line, stream,
	// and stride prefetchers the Bandit orchestrates (<2 KB per paper).
	EnsembleStorageBytes = 2 * 1024
)

// Latency constants (cycles), per the paper's conservative estimates.
const (
	// DivSqrtLatency is the conservatively assumed latency of one
	// division or square root in a single non-pipelined arithmetic unit.
	DivSqrtLatency = 20
	// SelectLatencyConservative is the conservative end-of-step latency
	// assumed in all simulations: potentials of all arms computed on the
	// critical path.
	SelectLatencyConservative = 500
	// SelectLatencyAdvanced is the latency of the advanced design that
	// precomputes all untested arms' potentials in the background.
	SelectLatencyAdvanced = 50
)

// Physical-model constants at 10 nm, as published in §6.5.
const (
	// AgentAreaMM2 is the area of one Bandit agent (tables + FPU).
	AgentAreaMM2 = 0.00044
	// AgentPowerMW is the power of one Bandit agent.
	AgentPowerMW = 0.11
	// IcelakeDieAreaMM2 is the total die area of the 40-core Intel
	// Icelake reference (wikichip).
	IcelakeDieAreaMM2 = 628.0
	// IcelakeTDPW is the reference die's thermal design power in watts.
	IcelakeTDPW = 270.0
	// IcelakeCores is the number of cores (one Bandit per core).
	IcelakeCores = 40
)

// AgentCost summarizes the hardware cost of a Bandit instance.
type AgentCost struct {
	Arms         int
	StorageBytes int     // nTable + rTable
	AreaMM2      float64 // per agent, at 10 nm
	PowerMW      float64 // per agent, at 10 nm
	SelectCycles int     // conservative arm-selection latency
}

// Agent returns the cost model for a Bandit with the given number of arms.
// Area and power are dominated by the arithmetic unit and control logic, so
// they are held at the paper's published per-agent constants; storage
// scales linearly with arms.
func Agent(arms int) AgentCost {
	if arms < 1 {
		arms = 1
	}
	return AgentCost{
		Arms:         arms,
		StorageBytes: arms * BytesPerArm,
		AreaMM2:      AgentAreaMM2,
		PowerMW:      AgentPowerMW,
		SelectCycles: selectLatency(arms),
	}
}

// selectLatency models the naive (conservative) arm-selection critical
// path: ln(nTotal) computed once, then per arm a division, a square root, a
// multiply and an add on a single non-pipelined unit, plus table reads and
// the final comparison tree. This reproduces the paper's "less than 500
// cycles for 11 arms" estimate.
func selectLatency(arms int) int {
	const (
		lnCost      = DivSqrtLatency       // one log approximation up front
		perArmCost  = 2*DivSqrtLatency + 2 // div + sqrt + mul + add (fused)
		compareCost = 1
	)
	return lnCost + arms*perArmCost + arms*compareCost
}

// String renders the agent cost on one line.
func (c AgentCost) String() string {
	return fmt.Sprintf("arms=%d storage=%dB area=%.5fmm2 power=%.2fmW select=%dcyc",
		c.Arms, c.StorageBytes, c.AreaMM2, c.PowerMW, c.SelectCycles)
}

// DieOverhead reports the relative area and power overhead (fractions in
// [0,1]) of equipping every core of the reference 40-core die with one
// Bandit agent each.
func DieOverhead() (areaFrac, powerFrac float64) {
	areaFrac = float64(IcelakeCores) * AgentAreaMM2 / IcelakeDieAreaMM2
	powerFrac = float64(IcelakeCores) * AgentPowerMW / 1000.0 / IcelakeTDPW
	return areaFrac, powerFrac
}

// StorageComparison is one row of the storage-overhead comparison the paper
// makes when positioning Bandit against prior prefetchers.
type StorageComparison struct {
	Name  string
	Bytes int
}

// StorageTable returns the storage comparison rows for a Bandit with the
// given number of arms, in the order the paper discusses them.
func StorageTable(arms int) []StorageComparison {
	return []StorageComparison{
		{Name: "Bandit", Bytes: Agent(arms).StorageBytes},
		{Name: "Bandit+ensemble", Bytes: Agent(arms).StorageBytes + EnsembleStorageBytes},
		{Name: "Pythia", Bytes: PythiaStorageBytes},
		{Name: "MLOP", Bytes: MLOPStorageBytes},
		{Name: "Bingo", Bytes: BingoStorageBytes},
	}
}
