package core

import (
	"fmt"
	"strconv"
	"strings"
)

// This file is the CLI-facing algorithm registry: one place that maps the
// flag names the tools accept ("-algo ducb", "-algo static:3") to
// configured controllers, so every command validates against the same
// list and prints the same valid names on a bad flag.

// AlgoNames returns the algorithm names ParseAlgo accepts, in display
// order. "static:N" stands for any fixed arm index.
func AlgoNames() []string {
	return []string{"ducb", "ucb", "eps", "single", "periodic", "ctx-ducb", "static:N"}
}

// contextualBases maps a contextual algorithm name to the per-context
// base algorithm it runs over each signature's Tables.
var contextualBases = map[string]string{
	"ctx-ducb": "ducb",
}

// ContextualBase returns the per-context base algorithm for a contextual
// algorithm name, and whether name denotes one.
func ContextualBase(name string) (string, bool) {
	base, ok := contextualBases[name]
	return base, ok
}

// AlgoConfig maps an agent algorithm name to the Config ParseAlgo wraps
// it in, using the paper's prefetching hyperparameters (Table 6:
// c = PrefetchC, gamma = PrefetchGamma). It exists so callers that adjust
// the config before building the agent (a restart probability, a slab
// slot) share one registry with ParseAlgo. Names that denote a non-agent
// controller ("static:N") and unknown names return an error.
func AlgoConfig(name string, arms int, seed uint64, recordTrace bool) (Config, error) {
	return AlgoConfigAt(name, arms, seed, PrefetchC, PrefetchGamma, recordTrace)
}

// AlgoConfigAt is AlgoConfig at another use case's Table 6 pair: the
// exploration constant c and the DUCB forgetting factor gamma (SMTC and
// SMTGamma for SMT fetch PG selection).
func AlgoConfigAt(name string, arms int, seed uint64, c, gamma float64, recordTrace bool) (Config, error) {
	var policy Policy
	switch name {
	case "ducb":
		policy = NewDUCB(c, gamma)
	case "ucb":
		policy = NewUCB(c)
	case "eps":
		policy = NewEpsilonGreedy(0.05)
	case "single":
		policy = NewSingle()
	case "periodic":
		policy = NewPeriodic(8, 4)
	default:
		if _, ok := ContextualBase(name); ok {
			return Config{}, fmt.Errorf("algorithm %q is contextual; build it with NewContextualAgent or ParseAlgo", name)
		}
		return Config{}, fmt.Errorf("unknown algorithm %q (valid: %s)",
			name, strings.Join(AlgoNames(), ", "))
	}
	return Config{
		Arms: arms, Policy: policy, Normalize: true,
		Seed: seed, RecordTrace: recordTrace,
	}, nil
}

// ParseAlgo builds a controller for the named bandit algorithm over the
// given arm count, using the paper's prefetching hyperparameters
// (Table 6: c = PrefetchC, gamma = PrefetchGamma). "static:N" returns
// FixedArm(N). recordTrace enables per-step arm recording on the agent
// algorithms (FixedArm has no trace). Unknown names and out-of-range
// static arms return an error listing the valid names.
func ParseAlgo(name string, arms int, seed uint64, recordTrace bool) (Controller, error) {
	if strings.HasPrefix(name, "static:") {
		n, err := strconv.Atoi(strings.TrimPrefix(name, "static:"))
		if err != nil || n < 0 || n >= arms {
			return nil, fmt.Errorf("bad static arm in %q (have %d arms)", name, arms)
		}
		return FixedArm(n), nil
	}
	if base, ok := ContextualBase(name); ok {
		return NewContextualAgent(ContextualConfig{
			Arms: arms, Algo: base, Seed: seed, RecordTrace: recordTrace,
		})
	}
	cfg, err := AlgoConfig(name, arms, seed, recordTrace)
	if err != nil {
		return nil, err
	}
	a, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return a, nil
}
