package simsmt

import (
	"math"
	"sort"
	"testing"

	"microbandit/internal/xrand"
)

// refRelease is one scheduled release in the reference, a slice sorted by
// cycle.
type refRelease struct {
	cycle int64
	lane  int // thread<<1 | what
}

// TestReleaseWheelMatchesSortedReference drives the release wheel and a
// sorted slice with the same random pushes and advances, at distances up
// to and past the wheel's horizon, and checks after every operation that
// the earliest pending release matches and that every advance applies the
// same per-lane counts. Advances move like the pipeline: one cycle, or a
// jump to at most the earliest pending release.
func TestReleaseWheelMatchesSortedReference(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 4} {
		rng := xrand.New(seed)
		w := &releaseWheel{}
		var ref []refRelease
		now := int64(rng.Intn(1 << 20))
		pushes, far := 0, 0
		for step := 0; step < 200_000; step++ {
			if len(ref) < 512 && rng.Intn(3) != 0 {
				var d int64
				switch rng.Intn(8) {
				case 0:
					d = wheelSlots - 2 + int64(rng.Intn(5)) // around the horizon
				case 1:
					d = wheelSlots + 1 + int64(rng.Intn(6*wheelSlots)) // far tier
				case 2:
					d = 1 + int64(rng.Intn(wheelSlots))
				default:
					d = 1 + int64(rng.Intn(64))
				}
				th, what := rng.Intn(2), int64(rng.Intn(2))
				w.push(now, now+d, th, what)
				i := sort.Search(len(ref), func(i int) bool { return ref[i].cycle > now+d })
				ref = append(ref, refRelease{})
				copy(ref[i+1:], ref[i:])
				ref[i] = refRelease{now + d, th<<1 | int(what)}
				pushes++
				if d > wheelSlots {
					far++
				}
			} else {
				next := w.next(now)
				to := now + 1
				if rng.Intn(2) == 0 {
					to = min(next, now+1+int64(rng.Intn(3*wheelSlots)))
				}
				now = to
				lanes := w.due(now)
				var want [4]int
				for len(ref) > 0 && ref[0].cycle <= now {
					if ref[0].cycle < now {
						t.Fatalf("seed %d step %d: release at %d skipped by advance to %d", seed, step, ref[0].cycle, now)
					}
					want[ref[0].lane]++
					ref = ref[1:]
				}
				for lane, n := range want {
					if got := int(uint16(lanes >> (16 * lane))); got != n {
						t.Fatalf("seed %d step %d cycle %d: lane %d applied %d, want %d", seed, step, now, lane, got, n)
					}
				}
			}
			want := int64(math.MaxInt64)
			if len(ref) > 0 {
				want = ref[0].cycle
			}
			if got := w.next(now); got != want {
				t.Fatalf("seed %d step %d cycle %d: next %d, want %d", seed, step, now, got, want)
			}
		}
		if far == 0 || far == pushes {
			t.Fatalf("seed %d: %d of %d pushes went to the far tier", seed, far, pushes)
		}
	}
}
