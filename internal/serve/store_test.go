package serve

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestNewStoreRoundsToPowerOfTwo(t *testing.T) {
	cases := []struct{ in, want int }{
		{0, DefaultShards}, {-3, DefaultShards},
		{1, 1}, {2, 2}, {3, 4}, {5, 8}, {64, 64}, {65, 128},
	}
	for _, c := range cases {
		if got := NewStore(c.in).Shards(); got != c.want {
			t.Errorf("NewStore(%d).Shards() = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestStoreCreateGetDelete(t *testing.T) {
	st := NewStore(4)
	s, err := st.Create(Spec{Algo: "ucb", Arms: 3})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if got, ok := st.Get(s.ID()); !ok || got != s {
		t.Fatalf("Get(%q) = %v, %v", s.ID(), got, ok)
	}
	if _, ok := st.Get("s-missing"); ok {
		t.Fatal("Get of unknown id succeeded")
	}
	if st.Len() != 1 {
		t.Fatalf("Len = %d, want 1", st.Len())
	}
	if !st.Delete(s.ID()) {
		t.Fatal("Delete reported the session missing")
	}
	if st.Delete(s.ID()) {
		t.Fatal("second Delete reported success")
	}
	if st.Len() != 0 {
		t.Fatalf("Len after delete = %d, want 0", st.Len())
	}
}

func TestStoreCreateRejectsBadSpec(t *testing.T) {
	st := NewStore(1)
	bad := []Spec{
		{Arms: 0},
		{Arms: MaxArms + 1},
		{Arms: 2, Algo: "nope"},
		{Arms: 2, MetaPairs: [][2]float64{{1, 0.99}}},
		{Arms: 2, Faults: "stuckarm:0.5"}, // substrate kind
		{Arms: 2, Faults: "not a spec"},   // unparsable
		{Arms: 2, Algo: "static:7"},       // arm out of range
	}
	for _, sp := range bad {
		if _, err := st.Create(sp); err == nil {
			t.Errorf("Create(%+v) succeeded, want error", sp)
		}
	}
	if st.Len() != 0 {
		t.Fatalf("failed creates leaked sessions: Len = %d", st.Len())
	}
}

// TestRejectedCreateTakesNoID: refused creates leave the id counter
// alone, so the next session is the first id and the checkpoint's
// next_id counts only sessions that exist.
func TestRejectedCreateTakesNoID(t *testing.T) {
	st := NewStore(1)
	for _, algo := range []string{"thompson", "linucb"} {
		if _, err := st.Create(Spec{Algo: algo, Arms: 2}); err == nil {
			t.Fatalf("Create(%s) succeeded, want error", algo)
		}
	}
	s, err := st.Create(Spec{Arms: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s.ID() != "s-00000001" {
		t.Errorf("first session after refusals = %s, want s-00000001", s.ID())
	}
	data, err := st.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	var file checkpointFile
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if file.NextID != 1 {
		t.Errorf("checkpoint next_id = %d, want 1", file.NextID)
	}
}

func TestStoreIDsSortedAndUnique(t *testing.T) {
	st := NewStore(8)
	want := make([]string, 0, 20)
	for i := 0; i < 20; i++ {
		s, err := st.Create(Spec{Algo: "eps", Arms: 2})
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		want = append(want, s.ID())
	}
	sort.Strings(want)
	got := st.IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs len = %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("IDs[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	if !sort.StringsAreSorted(got) {
		t.Fatal("IDs not sorted")
	}
}

// TestStoreConcurrent hammers the store from many goroutines; run with
// -race to verify the shard locking.
func TestStoreConcurrent(t *testing.T) {
	st := NewStore(8)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s, err := st.Create(Spec{Algo: "ducb", Arms: 4, Seed: uint64(w*100 + i + 1)})
				if err != nil {
					t.Errorf("Create: %v", err)
					return
				}
				seq, _, err := s.Step()
				if err != nil {
					t.Errorf("Step: %v", err)
					return
				}
				if _, err := s.Reward(seq, 0.5); err != nil {
					t.Errorf("Reward: %v", err)
					return
				}
				if i%3 == 0 {
					st.Delete(s.ID())
				}
				st.Len()
				st.IDs()
			}
		}(w)
	}
	wg.Wait()
	ids := st.IDs()
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate id %q", id)
		}
		seen[id] = true
	}
	if len(ids) != st.Len() {
		t.Fatalf("IDs len %d != Len %d", len(ids), st.Len())
	}
}

func TestSessionSequenceProtocol(t *testing.T) {
	st := NewStore(1)
	s, err := st.Create(Spec{Algo: "ucb", Arms: 3, Seed: 7})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}

	// Reward before any step.
	if _, err := s.Reward(0, 1); !isProtocol(err, CodeNoOpenStep) {
		t.Fatalf("reward-before-step err = %v, want %s", err, CodeNoOpenStep)
	}

	seq, arm, err := s.Step()
	if err != nil || seq != 0 {
		t.Fatalf("first Step = (%d, %d, %v), want seq 0", seq, arm, err)
	}

	// Double step.
	if _, _, err := s.Step(); !isProtocol(err, CodeStepOpen) {
		t.Fatalf("double-step err = %v, want %s", err, CodeStepOpen)
	}

	// Wrong sequence number.
	if _, err := s.Reward(5, 1); !isProtocol(err, CodeSeqMismatch) {
		t.Fatalf("wrong-seq err = %v, want %s", err, CodeSeqMismatch)
	}

	steps, err := s.Reward(0, 1)
	if err != nil || steps != 1 {
		t.Fatalf("Reward = (%d, %v), want steps 1", steps, err)
	}

	// Duplicate reward delivery.
	if _, err := s.Reward(0, 1); !isProtocol(err, CodeNoOpenStep) {
		t.Fatalf("duplicate-reward err = %v, want %s", err, CodeNoOpenStep)
	}

	// Sequence advances.
	seq, _, err = s.Step()
	if err != nil || seq != 1 {
		t.Fatalf("second Step seq = %d (%v), want 1", seq, err)
	}
}

func isProtocol(err error, code string) bool {
	pe, ok := err.(*ProtocolError)
	return ok && pe.Code == code
}

func TestSessionInfo(t *testing.T) {
	st := NewStore(1)
	s, err := st.Create(Spec{Algo: "static:2", Arms: 4})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for i := 0; i < 3; i++ {
		seq, arm, err := s.Step()
		if err != nil {
			t.Fatalf("Step: %v", err)
		}
		if arm != 2 {
			t.Fatalf("static:2 chose arm %d", arm)
		}
		if _, err := s.Reward(seq, 1); err != nil {
			t.Fatalf("Reward: %v", err)
		}
	}
	info, err := s.Info()
	if err != nil {
		t.Fatalf("Info: %v", err)
	}
	if info.Seq != 3 || info.Open || info.BestArm != 2 {
		t.Fatalf("Info = %+v", info)
	}
	if info.ID != s.ID() {
		t.Fatalf("Info.ID = %q, want %q", info.ID, s.ID())
	}
}

func TestMetaSessionServes(t *testing.T) {
	st := NewStore(1)
	pairs := [][2]float64{{0.5, 0.99}, {1.0, 0.999}, {2.0, 1.0}}
	s, err := st.Create(Spec{Arms: 3, Seed: 11, MetaPairs: pairs})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for i := 0; i < 30; i++ {
		seq, arm, err := s.Step()
		if err != nil {
			t.Fatalf("Step %d: %v", i, err)
		}
		if arm < 0 || arm >= 3 {
			t.Fatalf("arm %d out of range", arm)
		}
		if _, err := s.Reward(seq, float64(arm)/3); err != nil {
			t.Fatalf("Reward %d: %v", i, err)
		}
	}
	info, err := s.Info()
	if err != nil {
		t.Fatalf("Info: %v", err)
	}
	if got := info.Seq; got != 30 {
		t.Fatalf("Seq = %d, want 30", got)
	}
}

// TestMetaSessionBestArm: a meta session's best_arm is a hardware arm —
// the best arm of the candidate the high-level bandit rates best — and
// agrees with a plain DUCB session under the same loop, not a candidate
// index.
func TestMetaSessionBestArm(t *testing.T) {
	st := NewStore(1)
	for _, sp := range []Spec{
		{Arms: 8, MetaPairs: [][2]float64{{0.04, 0.999}, {0.01, 0.975}}},
		{Algo: "ducb", Arms: 8},
	} {
		s, err := st.Create(sp)
		if err != nil {
			t.Fatalf("Create(%+v): %v", sp, err)
		}
		for i := 0; i < 2000; i++ {
			seq, arm, err := s.Step()
			if err != nil {
				t.Fatalf("Step %d: %v", i, err)
			}
			r := 0.0
			if arm == 5 {
				r = 1
			}
			if _, err := s.Reward(seq, r); err != nil {
				t.Fatalf("Reward %d: %v", i, err)
			}
		}
		info, err := s.Info()
		if err != nil {
			t.Fatalf("Info: %v", err)
		}
		if info.BestArm != 5 {
			t.Fatalf("%+v: best_arm = %d, want 5", sp, info.BestArm)
		}
	}
}

func TestSessionIDsAreDense(t *testing.T) {
	st := NewStore(4)
	for i := 1; i <= 3; i++ {
		s, err := st.Create(Spec{Algo: "eps", Arms: 2})
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		if want := fmt.Sprintf("s-%08x", i); s.ID() != want {
			t.Fatalf("id = %q, want %q", s.ID(), want)
		}
	}
}

// TestStoreBytesPerSession pins the store's footprint: the heap one
// live DUCB-8 session costs in a default 64-shard store, its share of
// the shard indexes included. The agent's learned state is 128 bytes of
// R and N rows; a store that reserved a 512-agent arena in every shard
// a session touched cost ~107 KB per session at 128 sessions.
func TestStoreBytesPerSession(t *testing.T) {
	heap := func() int64 {
		// Two cycles: sync.Pool victims survive the first.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	for _, c := range []struct {
		sessions int
		maxBytes int64
	}{
		{1, 8 << 10},
		{128, 4 << 10},
		{16384, 2 << 10},
	} {
		st := NewStore(0)
		before := heap()
		for i := 0; i < c.sessions; i++ {
			if _, err := st.Create(Spec{Algo: "ducb", Arms: 8, Seed: uint64(i + 1)}); err != nil {
				t.Fatalf("Create: %v", err)
			}
		}
		per := (heap() - before) / int64(c.sessions)
		runtime.KeepAlive(st)
		t.Logf("%d sessions: %d B per session", c.sessions, per)
		if per > c.maxBytes {
			t.Errorf("%d sessions: %d B per session, want <= %d", c.sessions, per, c.maxBytes)
		}
	}
}

// TestStoreIndexChurnUnderBatches creates and deletes sessions in waves
// that rebuild a two-shard store's indexes several times, while batch
// clients drive a fixed set of sessions over /v1/batch. Run under -race
// this probes the lock-free lookup: a live session must be found by
// every op, across every rebuild and tombstone, and each client owns its
// sessions, so every op must succeed.
func TestStoreIndexChurnUnderBatches(t *testing.T) {
	srv := New(Config{Store: NewStore(2)})
	st := srv.Store()
	const clients, perClient = 3, 4
	var stable []string
	for i := 0; i < clients*perClient; i++ {
		s, err := st.Create(Spec{Algo: "ducb", Arms: 4, Seed: uint64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		stable = append(stable, s.ID())
	}

	done := make(chan struct{})
	var batches atomic.Int64
	var wg sync.WaitGroup
	// A failing check below must stop the clients before the test ends,
	// or they would report into a finished test.
	var stopOnce sync.Once
	stop := func() { stopOnce.Do(func() { close(done); wg.Wait() }) }
	defer stop()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(ids []string) {
			defer wg.Done()
			seqs := make([]uint64, len(ids))
			open := false
			for {
				select {
				case <-done:
					return
				default:
				}
				var b strings.Builder
				b.WriteString(`{"ops":[`)
				for i, id := range ids {
					if i > 0 {
						b.WriteString(",")
					}
					if open {
						fmt.Fprintf(&b, `{"id":%q,"seq":%d,"reward":0.25},`, id, seqs[i])
					}
					fmt.Fprintf(&b, `{"id":%q,"step":true}`, id)
				}
				b.WriteString(`]}`)
				req := httptest.NewRequest("POST", "/v1/batch", strings.NewReader(b.String()))
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, req)
				var out wireBatch
				if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
					t.Errorf("batch response undecodable: %v", err)
					return
				}
				per := 1
				if open {
					per = 2
				}
				if len(out.Results) != per*len(ids) {
					t.Errorf("%d results for %d ops", len(out.Results), per*len(ids))
					return
				}
				for i, r := range out.Results {
					if r.Error != nil {
						t.Errorf("op %d on a live session failed: %+v", i, *r.Error)
						return
					}
					if r.Seq != nil {
						seqs[i/per] = *r.Seq
					}
				}
				open = true
				batches.Add(1)
			}
		}(stable[c*perClient : (c+1)*perClient])
	}

	// At least three waves, and more until the clients have overlapped
	// them with a hundred batches (bounded, should a client stop early).
	maxSlots, wave := 0, 0
	for ; wave < 3 || batches.Load() < 100 && wave < 50; wave++ {
		var churn []string
		for i := 0; i < 600; i++ {
			s, err := st.Create(Spec{Algo: "eps", Arms: 2})
			if err != nil {
				t.Fatal(err)
			}
			churn = append(churn, s.ID())
		}
		for i := range st.shards {
			maxSlots = max(maxSlots, len(st.shards[i].idx.Load().slots))
		}
		for _, id := range churn {
			if !st.Delete(id) {
				t.Fatalf("Delete(%s) missed a live session", id)
			}
			if _, ok := st.Get(id); ok {
				t.Fatalf("Get(%s) found a deleted session", id)
			}
		}
	}
	stop()
	t.Logf("%d churn waves overlapped %d batches", wave, batches.Load())

	if maxSlots < 8*minIndexSlots {
		t.Fatalf("largest shard index had %d slots; the churn should rebuild it past %d", maxSlots, 8*minIndexSlots)
	}
	if got := st.IDs(); len(got) != len(stable) || st.Len() != len(stable) {
		t.Fatalf("after churn: IDs %d, Len %d, want %d", len(got), st.Len(), len(stable))
	}
	for _, id := range stable {
		if _, ok := st.Get(id); !ok {
			t.Fatalf("stable session %s lost", id)
		}
	}
}

// BenchmarkStoreCreateDelete times session create and delete at 16,384
// DUCB-8 sessions in a default store: each iteration creates them all
// into a fresh store, then deletes them all.
func BenchmarkStoreCreateDelete(b *testing.B) {
	const sessions = 16384
	ids := make([]string, sessions)
	var createNs, deleteNs time.Duration
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		st := NewStore(0)
		t0 := time.Now()
		for i := range ids {
			s, err := st.Create(Spec{Algo: "ducb", Arms: 8, Seed: uint64(i + 1)})
			if err != nil {
				b.Fatal(err)
			}
			ids[i] = s.ID()
		}
		t1 := time.Now()
		for _, id := range ids {
			if !st.Delete(id) {
				b.Fatalf("Delete(%s) missed", id)
			}
		}
		createNs += t1.Sub(t0)
		deleteNs += time.Since(t1)
	}
	b.ReportMetric(float64(createNs.Nanoseconds())/float64(b.N*sessions), "ns/create")
	b.ReportMetric(float64(deleteNs.Nanoseconds())/float64(b.N*sessions), "ns/delete")
}
