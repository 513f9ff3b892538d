package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
)

// golden holds the simulated results one seed must reproduce: per
// simulation workload the rep's IPC bits and cycle count, per experiment
// workload the SHA-256 of its rendered table. Only a change that
// deliberately alters simulated results re-records it (-update-golden).
type golden struct {
	Sims   map[string]goldenSim `json:"sims"`
	Tables map[string]string    `json:"tables"`
}

type goldenSim struct {
	Warmup  int64  `json:"warmup"`
	Insts   int64  `json:"insts"`
	IPCBits string `json:"ipc_bits"`
	IPC     string `json:"ipc"` // for readers; IPCBits is what is compared
	Cycles  int64  `json:"cycles"`
}

func goldenPath(seed uint64) string {
	return filepath.Join("bench", "golden", fmt.Sprintf("seed%d.json", seed))
}

// loadGolden reads the seed's golden file; a seed without one returns an
// empty golden (only the determinism checks run).
func loadGolden(seed uint64) (*golden, error) {
	g := &golden{Sims: map[string]goldenSim{}, Tables: map[string]string{}}
	data, err := os.ReadFile(goldenPath(seed))
	if errors.Is(err, fs.ErrNotExist) {
		return g, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, g); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", goldenPath(seed), err)
	}
	return g, nil
}

func (g *golden) save(seed uint64) error {
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath(seed)), 0o755); err != nil {
		return err
	}
	return os.WriteFile(goldenPath(seed), append(data, '\n'), 0o644)
}

// checkSim compares a simulation rep with the golden, or records it when
// updating.
func (cfg runCfg) checkSim(res *result, insts int64, ipcBits uint64, cycles int64) {
	got := goldenSim{
		Warmup: pfWarmup, Insts: insts,
		IPCBits: fmt.Sprintf("%#016x", ipcBits),
		IPC:     fmt.Sprint(math.Float64frombits(ipcBits)),
		Cycles:  cycles,
	}
	if cfg.update {
		cfg.golden.Sims[cfg.workload] = got
		return
	}
	want, ok := cfg.golden.Sims[cfg.workload]
	if ok && want != got {
		res.fail("golden mismatch: got %+v, %s has %+v", got, goldenPath(cfg.seed), want)
	}
}

// checkTable compares an experiment's rendered output with the golden, or
// records it when updating.
func (cfg runCfg) checkTable(res *result, rendered string) {
	sum := sha256.Sum256([]byte(rendered))
	got := hex.EncodeToString(sum[:])
	if cfg.update {
		cfg.golden.Tables[cfg.workload] = got
		return
	}
	if want, ok := cfg.golden.Tables[cfg.workload]; ok && want != got {
		res.fail("golden mismatch: rendered table sha256 %s, %s has %s", got, goldenPath(cfg.seed), want)
	}
}
