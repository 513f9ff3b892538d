package prefetch

import (
	"math"
	"slices"
	"testing"

	"microbandit/internal/xrand"
)

// slicePythia is Pythia over the plainest evaluation queue: a slice
// scanned on every demand access and shifted on every resolve. It shares
// Pythia's state hash, action selection and TD update and keeps only its
// own queue, so it is the reference the indexed ring must match update
// for update.
type slicePythia struct {
	Pythia
	pending []slicePending
}

type slicePending struct {
	line   uint64
	state  int
	action int
	cycle  int64
}

func newSlicePythia(seed uint64) *slicePythia {
	p := &slicePythia{}
	p.Pythia = *NewPythia(seed)
	return p
}

func (p *slicePythia) Operate(ev Event, buf []uint64) []uint64 {
	line := ev.Addr >> 6
	for i := 0; i < len(p.pending); i++ {
		if p.pending[i].line == line {
			r := pythiaRAccurateTimely
			if ev.Cycle-p.pending[i].cycle < 200 {
				r = pythiaRAccurateLate
			}
			p.resolveAt(i, r)
			i--
		}
	}
	s := p.state(ev)
	a := p.selectAction(s)
	p.actHist[a]++
	if p.primed {
		if _, _, issued := pythiaDecode(p.prevAction); !issued {
			r := pythiaRNoPrefetch
			if p.bwUtil > pythiaHighBW {
				r = pythiaRNoPrefetchHiBW
			}
			p.update(p.prevState, p.prevAction, r, s, a)
		} else {
			p.update(p.prevState, p.prevAction, 0, s, a)
		}
	}
	p.prevState, p.prevAction, p.primed = s, a, true
	p.lastLine = line

	offset, degree, issued := pythiaDecode(a)
	if !issued {
		return buf
	}
	for d := 1; d <= degree; d++ {
		target := int64(line) + int64(offset*d)
		if target < 0 {
			continue
		}
		tl := uint64(target)
		buf = append(buf, tl*LineSize)
		if len(p.pending) >= pythiaEQCap {
			p.resolveAt(0, p.inaccurateReward())
		}
		p.pending = append(p.pending, slicePending{line: tl, state: s, action: a, cycle: ev.Cycle})
	}
	return buf
}

func (p *slicePythia) resolveAt(i int, r float64) {
	e := p.pending[i]
	p.q[e.state][e.action] += float32(pythiaAlpha * (r - float64(p.q[e.state][e.action])))
	p.pending = append(p.pending[:i], p.pending[i+1:]...)
}

func (p *slicePythia) Reset() {
	p.Pythia.Reset()
	p.pending = nil
}

// favourDegree12 raises every state's degree-12 actions far above the
// rest in both agents, so the next accesses issue bursts of twelve
// prefetches until the inaccurate rewards pull the values back down.
func favourDegree12(ps ...*Pythia) {
	for _, p := range ps {
		for s := range p.q {
			for a := 48; a < 64; a++ {
				p.q[s][a] = 100 + float32(a)
			}
		}
	}
}

// TestPythiaQueueMatchesSlice drives the ring-queue Pythia and the slice
// reference with the same random event streams and, after every call,
// compares the prefetches, the queue length and every Q value bit for
// bit. The streams repeat lines (several pending entries per line),
// issue degree-12 bursts past the 192-entry cap, jump far away (overflow
// with no resolution), flip the bandwidth signal, and Reset mid-stream.
func TestPythiaQueueMatchesSlice(t *testing.T) {
	var maxLen, overflows, multiResolves, bursts int
	for seed := uint64(1); seed <= 6; seed++ {
		got, want := NewPythia(seed), newSlicePythia(seed)
		rng := xrand.New(seed * 7919)
		var gotBuf, wantBuf []uint64
		base := uint64(1 << 20)
		cycle := int64(0)
		resetAt := 1000 + rng.Intn(2000)
		for i := 0; i < 4000; i++ {
			switch {
			case i == resetAt:
				got.Reset()
				want.Reset()
			case i%500 == 0:
				favourDegree12(got, &want.Pythia)
			case i%97 == 0:
				bw := rng.Float64()
				got.SetBandwidthUtil(bw)
				want.SetBandwidthUtil(bw)
			}
			if rng.Bool(0.01) {
				base += 1 << 16 // a far jump: nothing pending gets demanded
			}
			line := base + uint64(rng.Intn(96))
			if rng.Bool(0.3) {
				line = base + uint64(i%64) // sequential stretches
			}
			cycle += int64(rng.Intn(400))
			ev := Event{PC: 0x400 + uint64(rng.Intn(4))*4, Addr: line * LineSize, Cycle: cycle}

			before, same := len(want.pending), 0
			for _, e := range want.pending {
				if e.line == line {
					same++
				}
			}
			wantBuf = want.Operate(ev, wantBuf[:0])
			gotBuf = got.Operate(ev, gotBuf[:0])
			if !slices.Equal(gotBuf, wantBuf) {
				t.Fatalf("seed %d call %d: prefetches %v, want %v", seed, i, lines(gotBuf), lines(wantBuf))
			}
			if got.eq.len() != len(want.pending) {
				t.Fatalf("seed %d call %d: %d pending, want %d", seed, i, got.eq.len(), len(want.pending))
			}
			if got.actHist != want.actHist {
				t.Fatalf("seed %d call %d: action counts differ", seed, i)
			}
			for s := range got.q {
				for a := range got.q[s] {
					if math.Float32bits(got.q[s][a]) != math.Float32bits(want.q[s][a]) {
						t.Fatalf("seed %d call %d: Q[%d][%d] = %v, want %v", seed, i, s, a, got.q[s][a], want.q[s][a])
					}
				}
			}

			// What the stream exercised.
			maxLen = max(maxLen, len(want.pending))
			if len(wantBuf) == 12 {
				bursts++
			}
			if same >= 2 {
				multiResolves++
			}
			overflows += before - same + len(wantBuf) - len(want.pending)
		}
	}
	if maxLen != pythiaEQCap || overflows == 0 || bursts == 0 || multiResolves == 0 {
		t.Fatalf("streams too tame: max queue %d (cap %d), %d overflow resolves, %d degree-12 bursts, %d multi-entry resolves",
			maxLen, pythiaEQCap, overflows, bursts, multiResolves)
	}
}

// TestPythiaOperateZeroAlloc pins the steady state: once the prefetch
// buffer has grown, Operate allocates nothing, whether its accesses
// resolve pending prefetches, overflow the queue, or compact the ring.
func TestPythiaOperateZeroAlloc(t *testing.T) {
	p := NewPythia(1)
	favourDegree12(p)
	var buf []uint64
	i := uint64(0)
	step := func() {
		buf = p.Operate(evAt(1+i%3, 5000+i%200+(i/1000)*4096, int64(i*50)), buf[:0])
		i++
	}
	for k := 0; k < 10_000; k++ {
		step()
	}
	if n := testing.AllocsPerRun(100, func() {
		for k := 0; k < 100; k++ {
			step()
		}
	}); n != 0 {
		t.Fatalf("Pythia.Operate allocates %v times per 100 calls, want 0", n)
	}
}
