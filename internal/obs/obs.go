// Package obs is the telemetry layer of the bandit stack: a typed event
// stream emitted by the agent (internal/core), the simulation runners
// (internal/cpu, internal/simsmt), and the experiment engine
// (internal/harness), consumed by recorders that either persist the raw
// stream (JSONL) or aggregate it into the paper's inspection artifacts —
// Table 3's per-arm rTable/nTable state, Fig. 7/11-style arm-selection
// timelines, §4.3 restart events, and regret-vs-best-static series.
//
// Design constraints, in order:
//
//   - Zero cost when disabled. Emitters hold a nil Recorder by default
//     and guard every emission with one nil check; no allocation, no
//     interface call, no atomic touches the hot path until telemetry is
//     switched on.
//   - Deterministic bytes. Events carry only simulated quantities (bandit
//     steps, cycles, rewards) — never wall-clock time, goroutine ids, or
//     map-ordered iteration. A multi-run stream assembled through a
//     Collector is byte-identical at any worker count because each run
//     records into its own pre-indexed slot and slots are concatenated in
//     input order.
//   - Race-clean. A Buffer is owned by exactly one goroutine; the only
//     shared structure is the Collector's slot table, guarded by a mutex.
package obs

import (
	"fmt"
	"sync"
)

// Kind names one event type in the stream.
type Kind string

// Event kinds.
const (
	// KindRunStart opens one simulation run; Label identifies it. All
	// following events up to the next KindRunStart belong to this run.
	KindRunStart Kind = "run_start"
	// KindRunEnd closes a run; Fields carries final headline metrics
	// (e.g. ipc) and Step the completed bandit-step count.
	KindRunEnd Kind = "run_end"
	// KindArm is one arm selection (the paper's nextArm): Step is the
	// bandit step the arm applies to, Forced marks round-robin
	// (initial phase or §4.3 restart sweep) selections.
	KindArm Kind = "arm"
	// KindReward is one observed step reward (the paper's updRew):
	// Value is the reward as the policy saw it (post-normalization),
	// Raw the reward as the hardware produced it.
	KindReward Kind = "reward"
	// KindSnapshot is a periodic copy of the agent's learned state:
	// RTable, NTable, NTotal, and the §4.3 normalization constant RAvg.
	KindSnapshot Kind = "snapshot"
	// KindRestart marks a §4.3 probabilistic round-robin restart.
	KindRestart Kind = "rr_restart"
	// KindMetaSwitch marks the §9 hierarchical agent switching which
	// low-level bandit drives the hardware; Arm is the new level index.
	KindMetaSwitch Kind = "meta_switch"
	// KindInterval is a periodic substrate measurement; Fields carries
	// metrics such as ipc, mpki, pref_accuracy, pref_coverage,
	// dram_bw_util (prefetching) or sum_ipc, ipc0, ipc1 (SMT).
	KindInterval Kind = "interval"
	// KindFault marks a fault-injection spec armed for the run
	// (Label is the kind:intensity[:seed] spec).
	KindFault Kind = "fault"
	// KindScenario marks which decision scenario a run exercises (Label
	// is the scenario name, e.g. "dramsched").
	KindScenario Kind = "scenario"
)

// Event is one telemetry record. A single flat struct (rather than one
// type per kind) keeps the JSONL codec trivial and lets recorders store
// mixed streams in one slice; unused fields stay at their zero value and
// are omitted from the encoded form.
type Event struct {
	Kind   Kind      `json:"ev"`
	Step   int64     `json:"step,omitempty"`
	Cycle  int64     `json:"cycle,omitempty"`
	Arm    int       `json:"arm,omitempty"`
	Forced bool      `json:"forced,omitempty"`
	Value  float64   `json:"value,omitempty"`
	Raw    float64   `json:"raw,omitempty"`
	RTable []float64 `json:"rtable,omitempty"`
	NTable []float64 `json:"ntable,omitempty"`
	NTotal float64   `json:"ntotal,omitempty"`
	RAvg   float64   `json:"ravg,omitempty"`
	Fields *Fields   `json:"fields,omitempty"`
	Label  string    `json:"label,omitempty"`
}

// Recorder receives telemetry events. Implementations are not required
// to be safe for concurrent use: an emitter owns its recorder for the
// duration of a run (the Collector hands out one Buffer per run).
type Recorder interface {
	Record(ev Event)
}

// Nop is the disabled recorder: it drops every event. Emitters treat a
// nil Recorder the same way, so Nop exists mainly for tests and for APIs
// that want a non-nil default.
type Nop struct{}

// Record implements Recorder.
func (Nop) Record(Event) {}

// Buffer is an in-memory recorder: events append in emission order. The
// zero value is ready to use. A Buffer must be used from one goroutine
// at a time.
type Buffer struct {
	events []Event
}

// Record implements Recorder.
func (b *Buffer) Record(ev Event) { b.events = append(b.events, ev) }

// Events returns the recorded events (not a copy).
func (b *Buffer) Events() []Event { return b.events }

// Len returns the number of recorded events.
func (b *Buffer) Len() int { return len(b.events) }

// Reset empties the buffer, keeping its capacity.
func (b *Buffer) Reset() { b.events = b.events[:0] }

// Collector assembles a deterministic multi-run event stream from
// concurrent simulation runs: each run claims a numbered slot (its index
// in the experiment's job list) and records into a private Buffer;
// Events concatenates the slots in index order, so the assembled stream
// is byte-identical at any worker count.
type Collector struct {
	// Every is the snapshot/interval cadence, in bandit steps, that
	// emitters wired to this collector should use.
	Every int

	mu    sync.Mutex
	slots []*Buffer
}

// NewCollector returns a collector with the given snapshot cadence.
func NewCollector(every int) *Collector { return &Collector{Every: every} }

// Slot returns the buffer for run index i, creating it on first use and
// opening it with a KindRunStart event labeled label. It panics on a
// negative index or a slot claimed twice — both are engine bugs, not
// runtime conditions. Slot is safe to call concurrently; the returned
// Buffer is not, and must stay within the claiming goroutine.
func (c *Collector) Slot(i int, label string) *Buffer {
	if i < 0 {
		panic(fmt.Sprintf("obs: negative collector slot %d", i))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.slots) <= i {
		c.slots = append(c.slots, nil)
	}
	if c.slots[i] != nil {
		panic(fmt.Sprintf("obs: collector slot %d claimed twice", i))
	}
	b := &Buffer{}
	b.Record(Event{Kind: KindRunStart, Label: label})
	c.slots[i] = b
	return b
}

// Events returns the concatenation of all claimed slots in index order.
// Call it only after every recording goroutine has finished.
func (c *Collector) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []Event
	for _, b := range c.slots {
		if b != nil {
			out = append(out, b.events...)
		}
	}
	return out
}

// Runs returns the number of claimed slots.
func (c *Collector) Runs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, b := range c.slots {
		if b != nil {
			n++
		}
	}
	return n
}

// Attach wires rec into any controller that exposes
// SetRecorder(Recorder, int) — core.Agent and core.Selector do —
// without obs importing core. Controllers with no recorder support
// (fixed arms, fault wrappers) are left unwired; attach to the inner
// controller before wrapping it.
func Attach(ctrl any, rec Recorder, every int) {
	if sr, ok := ctrl.(interface{ SetRecorder(Recorder, int) }); ok {
		sr.SetRecorder(rec, every)
	}
}

// Compile-time interface checks.
var (
	_ Recorder = Nop{}
	_ Recorder = (*Buffer)(nil)
)
