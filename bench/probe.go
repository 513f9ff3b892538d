package main

// Host-speed normalization. On a shared 2-vCPU VM (Intel Xeon, 2.1 GHz)
// other tenants change the host's speed by 20-50% over seconds to
// minutes: across six 10 s runs of one seed the median cactuBSSN slice
// ranged from 1.85 to 3.03 ms, and a whole run can fall inside a slow
// period, so no statistic taken within one run removes it. Every host time
// is therefore measured next to a fixed reference probe and rescaled to a
// host on which the probe takes probeNominalNs. The probe is code of the
// benchmark only, so a change to the program moves the program's times
// and not the probe's. It times random updates of an L1-resident table
// and of an L2-sized one, because contention slows them differently;
// either alone left a 12-22% spread across runs.

import (
	"sort"
	"sync"
	"time"
)

// probeNominalNs is the in-line probe's duration on an uncontended host of
// the reference VM (Intel Xeon, 2 vCPUs at 2.1 GHz), so normalized times
// read close to that host's real times.
const probeNominalNs = 70_000

// probeIters is the number of table updates per timed kernel (~35 µs).
const probeIters = 10_000

// probe is the reference kernel's state. Not safe for concurrent use.
type probe struct {
	small, big []uint64
	sink       uint64
}

// newProbe builds a probe and runs it a few times, so its tables are
// resident before the first timed run.
func newProbe() *probe {
	p := &probe{small: make([]uint64, 1<<10), big: make([]uint64, 1<<17)}
	for i := 0; i < 4; i++ {
		p.run()
	}
	return p
}

// timed performs probeIters dependent pseudo-random read-modify-writes
// over tab and returns their duration in ns.
func (p *probe) timed(tab []uint64) float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	mask := uint64(len(tab) - 1)
	for i := 0; i < probeIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & mask
		if v := tab[j]; v&1 == 0 {
			tab[(j*7)&mask] += x
		} else {
			tab[j] = v + 1
		}
	}
	p.sink += tab[3]
	return float64(time.Since(t0))
}

// warm reads both tables once so they are cache-resident.
func (p *probe) warm() {
	for _, tab := range [][]uint64{p.small, p.big} {
		for i := 0; i < len(tab); i += 8 {
			p.sink += tab[i]
		}
	}
}

// run is the in-line probe, run right after a slice of the workload: the
// small table, plus the mean of the big table as the slice left it in the
// caches and the big table warmed. Over five sets of runs in different
// noise regimes the cold half alone left spreads up to 0.13, the warm
// half alone up to 0.14, and their mean at most 0.05. The slice's own
// footprint moves the cold half by ~2% across the pf-* workloads.
func (p *probe) run() float64 {
	a := p.timed(p.small)
	cold := p.timed(p.big)
	p.warm()
	return a + (cold+p.timed(p.big))/2
}

// runWarm is the background sampler's probe, both tables warmed first:
// between its samples both vCPUs run the workload, which evicts the
// tables completely, and a cold probe then measured mostly the workload's
// own cache traffic (it doubled serve-batch's normalized throughput).
func (p *probe) runWarm() float64 {
	p.warm()
	return p.timed(p.small) + p.timed(p.big)
}

// scale returns the factor that rescales a host time measured next to a
// probe of probeNs to the nominal host.
func scale(probeNs float64) float64 { return probeNominalNs / probeNs }

// sampler runs the probe in a background goroutine for workloads that
// keep both vCPUs busy, where the probe cannot run in line: every
// samplerPeriod it takes a P from the workload for one warmed probe
// (~0.1 ms, so ~0.2% of one vCPU). It delays whatever it displaces:
// sampling every 10 ms instead raised serve-batch's p99 by ~10%.
type sampler struct {
	mu      sync.Mutex
	at      []time.Time
	ns      []float64
	stop    chan struct{}
	stopped sync.WaitGroup
}

const samplerPeriod = 50 * time.Millisecond

func startSampler() *sampler {
	s := &sampler{stop: make(chan struct{})}
	s.stopped.Add(1)
	go func() {
		defer s.stopped.Done()
		p := newProbe()
		tick := time.NewTicker(samplerPeriod)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				ns := p.runWarm()
				s.mu.Lock()
				s.at = append(s.at, time.Now())
				s.ns = append(s.ns, ns)
				s.mu.Unlock()
			}
		}
	}()
	return s
}

// close stops the sampler and waits for its goroutine to exit.
func (s *sampler) close() {
	close(s.stop)
	s.stopped.Wait()
}

// scaleBetween returns the normalization factor for a host time measured
// over [from, to]: from the median probe in that interval, or, for an
// interval too short to hold one, the probe nearest to it.
func (s *sampler) scaleBetween(from, to time.Time) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var in []float64
	for i, t := range s.at {
		if !t.Before(from) && !t.After(to) {
			in = append(in, s.ns[i])
		}
	}
	if len(in) > 0 {
		return scale(median(in))
	}
	if len(s.at) == 0 {
		return 1
	}
	i := sort.Search(len(s.at), func(i int) bool { return !s.at[i].Before(to) })
	if i == len(s.at) {
		i--
	}
	return scale(s.ns[i])
}
