package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"microbandit/internal/core"
	"microbandit/internal/xrand"
)

// settle collects the previous operation's garbage before the next
// starts: each rep builds its own simulator, experiment or server, so
// without it one rep's leftovers would set the next rep's GC timing and
// the process's peak RSS, which then depended on how many reps fit in the
// window.
func settle() { runtime.GC() }

// hostMeter accumulates the Go runtime's and the process's counters over
// the timed regions of a run (the `go` layer).
type hostMeter struct {
	samples []metrics.Sample
	start   []float64
	cpuS    float64 // process CPU seconds at begin

	wall, cpu      float64 // summed over timed regions
	gcCPU, allCPU  float64
	allocB, cycles float64
}

var hostMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
}

func newHostMeter() *hostMeter {
	m := &hostMeter{samples: make([]metrics.Sample, len(hostMetricNames))}
	for i, n := range hostMetricNames {
		m.samples[i].Name = n
	}
	return m
}

func (m *hostMeter) read() []float64 {
	metrics.Read(m.samples)
	out := make([]float64, len(m.samples))
	for i, s := range m.samples {
		switch s.Value.Kind() {
		case metrics.KindFloat64:
			out[i] = s.Value.Float64()
		case metrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		}
	}
	return out
}

// begin opens a timed region.
func (m *hostMeter) begin() time.Time {
	m.start = m.read()
	m.cpuS = processCPU()
	return time.Now()
}

// end closes the timed region opened at t0 and returns its wall seconds.
func (m *hostMeter) end(t0 time.Time) float64 {
	wall := time.Since(t0).Seconds()
	cur := m.read()
	m.wall += wall
	m.cpu += processCPU() - m.cpuS
	m.gcCPU += cur[0] - m.start[0]
	m.allCPU += cur[1] - m.start[1]
	m.allocB += cur[2] - m.start[2]
	m.cycles += cur[3] - m.start[3]
	return wall
}

// report fills the go-layer metrics; workers is the number of goroutines
// the workload keeps busy.
func (m *hostMeter) report(r *result, workers int) {
	r.layer["go.cpu_util"] = ratio(m.cpu, m.wall*float64(workers))
	r.layer["go.gc_cpu_fraction"] = ratio(m.gcCPU, m.allCPU)
	r.layer["go.alloc_mb"] = m.allocB / 1e6
	r.layer["go.gc_cycles"] = m.cycles
}

// processCPU returns the process's user+system CPU seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb * 1024 / 1e6, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, os.ErrNotExist
}

// batchSlots is the slot count of the core isolation benchmark: the
// serve-batch workload's sessions per request.
const batchSlots = 64

// coreBatchNs times the core layer in isolation: Slab.StepBatch plus
// RewardBatch over batchSlots DUCB agents of the workload's arm count,
// with rewards drawn from seed. It returns host ns per decision (median
// of 5 batches).
func coreBatchNs(arms int, seed uint64) float64 {
	slab := core.MustNewSlab(arms, batchSlots)
	slots := make([]int32, batchSlots)
	for j := range slots {
		cfg, err := core.AlgoConfig("ducb", arms, seed+uint64(j), false)
		if err != nil {
			panic(err) // "ducb" is a registry name: cannot fail
		}
		_, slot, err := slab.Alloc(cfg)
		if err != nil {
			panic(err) // the slab was sized for batchSlots agents
		}
		slots[j] = int32(slot)
	}
	// Each arm pays a fixed reward drawn from seed, so the agents learn
	// and the timed loop spends nothing on generating rewards.
	rng := xrand.New(seed)
	means := make([]float64, arms)
	for a := range means {
		means[a] = rng.Float64()
	}
	picks := make([]int32, batchSlots)
	rewards := make([]float64, batchSlots)
	const rounds = 4000
	var per []float64
	for b := 0; b < 5; b++ {
		t0 := time.Now()
		for i := 0; i < rounds; i++ {
			slab.StepBatch(slots, picks)
			for j, a := range picks {
				rewards[j] = means[a]
			}
			slab.RewardBatch(slots, rewards)
		}
		per = append(per, float64(time.Since(t0))/(rounds*batchSlots))
	}
	return median(per)
}
