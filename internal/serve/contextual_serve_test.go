package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"
	"testing"

	"microbandit/internal/core"
)

// ctxVecFor fabricates a deterministic 3-value context vector (phase,
// mpki, bw_util) that cycles through a handful of distinct signatures.
func ctxVecFor(round int) [3]float64 {
	phase := round % 3
	mpki := []float64{1, 5, 60}[round%3]    // all above the first band cut, so
	bw := []float64{0.3, 0.6, 0.9}[round%3] // no vector aliases the zero signature
	return [3]float64{float64(phase), mpki, bw}
}

// TestContextualSessionOverHTTP drives a contextual session through the
// scalar HTTP surface: context-carrying steps, bare steps (zero
// signature), rewards, and the info read-model's context count.
func TestContextualSessionOverHTTP(t *testing.T) {
	srv := New(Config{})
	var cr createResponse
	do(t, srv, "POST", "/v1/sessions", `{"algo":"ctx-ducb","arms":4,"seed":7,"max_contexts":8}`, http.StatusCreated, &cr)
	base := "/v1/sessions/" + cr.ID

	// A bare step (no body) before any context runs the zero-signature
	// context.
	var st0 stepResponse
	do(t, srv, "POST", base+"/step", "", http.StatusOK, &st0)
	do(t, srv, "POST", base+"/reward", fmt.Sprintf(`{"seq":%d,"reward":0.5}`, st0.Seq), http.StatusOK, nil)

	for r := 0; r < 9; r++ {
		v := ctxVecFor(r)
		body := fmt.Sprintf(`{"context":[%g,%g,%g]}`, v[0], v[1], v[2])
		var st stepResponse
		do(t, srv, "POST", base+"/step", body, http.StatusOK, &st)
		if st.Seq != uint64(r+1) || st.Arm < 0 || st.Arm >= 4 {
			t.Fatalf("step %d = %+v", r, st)
		}
		do(t, srv, "POST", base+"/reward", fmt.Sprintf(`{"seq":%d,"reward":0.5}`, st.Seq), http.StatusOK, nil)
	}
	// A bare step now keeps the most recently selected context: no new
	// context is created.
	var st stepResponse
	do(t, srv, "POST", base+"/step", "", http.StatusOK, &st)
	do(t, srv, "POST", base+"/reward", fmt.Sprintf(`{"seq":%d,"reward":0.5}`, st.Seq), http.StatusOK, nil)

	var info SessionInfo
	do(t, srv, "GET", base, "", http.StatusOK, &info)
	// Three signatures from ctxVecFor plus the zero-signature context.
	if info.Contexts != 4 {
		t.Fatalf("info.Contexts = %d, want 4 (info %+v)", info.Contexts, info)
	}
	if info.Spec.MaxContexts != 8 {
		t.Fatalf("info.Spec.MaxContexts = %d, want 8", info.Spec.MaxContexts)
	}
}

// TestContextualSessionMatchesCoreAgent: the serve session is a thin
// protocol shell — the arm stream it emits under a context schedule must
// match a directly driven core.ContextualAgent with the same config.
func TestContextualSessionMatchesCoreAgent(t *testing.T) {
	const arms, seed, rounds = 5, 31, 120
	ref, err := core.NewContextualAgent(core.ContextualConfig{Arms: arms, Algo: "ducb", Seed: seed})
	if err != nil {
		t.Fatalf("NewContextualAgent: %v", err)
	}
	st := NewStore(1)
	s, err := st.Create(Spec{Algo: "ctx-ducb", Arms: arms, Seed: seed})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for r := 0; r < rounds; r++ {
		v := ctxVecFor(r)
		sig, err := SignatureFromVector(v[:])
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		ref.SetContext(sig)
		wantArm := ref.Step()
		seq, gotArm, err := s.StepWithContext(v[:])
		if err != nil {
			t.Fatalf("round %d step: %v", r, err)
		}
		if gotArm != wantArm {
			t.Fatalf("round %d: session arm %d, core agent arm %d", r, gotArm, wantArm)
		}
		rw := ckptReward(0, gotArm, seq)
		ref.Reward(rw)
		if _, err := s.Reward(seq, rw); err != nil {
			t.Fatalf("round %d reward: %v", r, err)
		}
	}
}

// TestContextualStepBadRequests: malformed context vectors and contexts
// sent to non-contextual sessions are typed 400s, and none of them
// consume a sequence number.
func TestContextualStepBadRequests(t *testing.T) {
	srv := New(Config{})
	var ctxCr, plainCr createResponse
	do(t, srv, "POST", "/v1/sessions", `{"algo":"ctx-ducb","arms":3,"seed":1}`, http.StatusCreated, &ctxCr)
	do(t, srv, "POST", "/v1/sessions", `{"algo":"ducb","arms":3,"seed":1}`, http.StatusCreated, &plainCr)

	cases := []struct {
		name, id, body string
	}{
		{"wrong length short", ctxCr.ID, `{"context":[1,2]}`},
		{"wrong length long", ctxCr.ID, `{"context":[1,2,3,4]}`},
		{"empty vector", ctxCr.ID, `{"context":[]}`},
		{"negative phase", ctxCr.ID, `{"context":[-1,2,0.5]}`},
		{"fractional phase", ctxCr.ID, `{"context":[1.5,2,0.5]}`},
		{"not json", ctxCr.ID, `{context`},
		{"trailing data", ctxCr.ID, `{"context":[1,2,0.5]} extra`},
		{"ctx on plain session", plainCr.ID, `{"context":[1,2,0.5]}`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := "/v1/sessions/" + c.id + "/step"
			if code := errCode(t, srv, "POST", path, c.body, http.StatusBadRequest); code != CodeBadRequest {
				t.Fatalf("code = %q, want %q", code, CodeBadRequest)
			}
		})
	}
	// None of the rejections above opened a step.
	var info SessionInfo
	do(t, srv, "GET", "/v1/sessions/"+ctxCr.ID, "", http.StatusOK, &info)
	if info.Seq != 0 || info.Open {
		t.Fatalf("rejected steps moved the session: %+v", info)
	}
}

// TestContextualSpecValidation: max_contexts is contextual-only and
// bounded, and contextual algos exclude meta portfolios.
func TestContextualSpecValidation(t *testing.T) {
	srv := New(Config{})
	bad := []string{
		`{"algo":"ducb","arms":3,"max_contexts":4}`,
		fmt.Sprintf(`{"algo":"ctx-ducb","arms":3,"max_contexts":%d}`, core.MaxMaxContexts+1),
		`{"algo":"ctx-ducb","arms":3,"max_contexts":-1}`,
		`{"algo":"ctx-ducb","arms":3,"meta_pairs":[[0.5,0.99]]}`,
		`{"algo":"linucb","arms":3,"max_contexts":2}`,
		`{"algo":"ctx-thompson","arms":3}`,
	}
	for _, body := range bad {
		if code := errCode(t, srv, "POST", "/v1/sessions", body, http.StatusBadRequest); code != CodeBadRequest {
			t.Fatalf("%s: code %q, want %q", body, code, CodeBadRequest)
		}
	}
	var cr createResponse
	do(t, srv, "POST", "/v1/sessions", `{"algo":"ctx-ducb","arms":3,"seed":5,"max_contexts":2}`,
		http.StatusCreated, &cr)
	if cr.Arms != 3 {
		t.Fatalf("ctx-ducb: create = %+v", cr)
	}
}

// TestBatchContextMatchesScalar: ctx-carrying batch steps land in the
// same signature contexts the scalar endpoint would select, so the two
// transports emit identical arm streams.
func TestBatchContextMatchesScalar(t *testing.T) {
	const rounds = 60
	spec := `{"algo":"ctx-ducb","arms":4,"seed":21}`

	runScalar := func() []int {
		srv := New(Config{})
		var cr createResponse
		do(t, srv, "POST", "/v1/sessions", spec, http.StatusCreated, &cr)
		var arms []int
		for r := 0; r < rounds; r++ {
			v := ctxVecFor(r)
			var st stepResponse
			do(t, srv, "POST", "/v1/sessions/"+cr.ID+"/step",
				fmt.Sprintf(`{"context":[%g,%g,%g]}`, v[0], v[1], v[2]), http.StatusOK, &st)
			arms = append(arms, st.Arm)
			do(t, srv, "POST", "/v1/sessions/"+cr.ID+"/reward",
				fmt.Sprintf(`{"seq":%d,"reward":%g}`, st.Seq, ckptReward(0, st.Arm, st.Seq)), http.StatusOK, nil)
		}
		return arms
	}

	runBatched := func() []int {
		srv := New(Config{})
		var cr createResponse
		do(t, srv, "POST", "/v1/sessions", spec, http.StatusCreated, &cr)
		var arms []int
		var seq uint64
		for r := 0; r < rounds; r++ {
			var b strings.Builder
			b.WriteString(`{"ops":[`)
			if r > 0 {
				fmt.Fprintf(&b, `{"id":%q,"seq":%d,"reward":%g},`,
					cr.ID, seq, ckptReward(0, arms[r-1], seq))
			}
			v := ctxVecFor(r)
			fmt.Fprintf(&b, `{"id":%q,"step":true,"ctx":[%g,%g,%g]}]}`, cr.ID, v[0], v[1], v[2])
			out := postBatch(t, srv, b.String())
			st := out.Results[len(out.Results)-1]
			if st.Seq == nil || st.Arm == nil {
				t.Fatalf("round %d: step result = %+v", r, st)
			}
			seq = *st.Seq
			arms = append(arms, *st.Arm)
		}
		return arms
	}

	want := runScalar()
	got := runBatched()
	for r := range want {
		if got[r] != want[r] {
			t.Fatalf("round %d: batch arm %d, scalar arm %d", r, got[r], want[r])
		}
	}
}

// TestBatchContextErrors: a ctx on a non-contextual session is a per-op
// bad_request (matching the scalar endpoint), and a ctx on a reward op
// rejects the whole batch at parse time.
func TestBatchContextErrors(t *testing.T) {
	srv := New(Config{})
	var plain createResponse
	do(t, srv, "POST", "/v1/sessions", `{"algo":"ducb","arms":3,"seed":2}`, http.StatusCreated, &plain)

	out := postBatch(t, srv, fmt.Sprintf(
		`{"ops":[{"id":%q,"step":true,"ctx":[1,2,0.5]},{"id":%q,"step":true}]}`, plain.ID, plain.ID))
	if len(out.Results) != 2 {
		t.Fatalf("results = %d, want 2", len(out.Results))
	}
	if out.Results[0].Error == nil || out.Results[0].Error.Code != CodeBadRequest {
		t.Fatalf("ctx-on-plain result = %+v, want %s", out.Results[0], CodeBadRequest)
	}
	if out.Results[1].Seq == nil || out.Results[1].Arm == nil {
		t.Fatalf("plain step result = %+v", out.Results[1])
	}

	if code := errCode(t, srv, "POST", "/v1/batch",
		fmt.Sprintf(`{"ops":[{"id":%q,"seq":0,"reward":1,"ctx":[1,2,3]}]}`, plain.ID),
		http.StatusBadRequest); code != CodeBadRequest {
		t.Fatalf("ctx-on-reward code = %q, want %q", code, CodeBadRequest)
	}
	// Malformed ctx vectors reject the batch at parse time.
	for _, body := range []string{
		fmt.Sprintf(`{"ops":[{"id":%q,"step":true,"ctx":[1,2]}]}`, plain.ID),
		fmt.Sprintf(`{"ops":[{"id":%q,"step":true,"ctx":[1,2,"x"]}]}`, plain.ID),
		fmt.Sprintf(`{"ops":[{"id":%q,"step":true,"ctx":{}}]}`, plain.ID),
	} {
		if code := errCode(t, srv, "POST", "/v1/batch", body, http.StatusBadRequest); code != CodeBadRequest {
			t.Fatalf("%s: code %q, want %q", body, code, CodeBadRequest)
		}
	}
}

// TestContextualCheckpointRoundTrip is the contextual acceptance test:
// contextual sessions checkpoint mid-stream (one with an open step in a
// non-zero context) and the restored store continues decision-identically
// under the same context schedule.
func TestContextualCheckpointRoundTrip(t *testing.T) {
	specs := []Spec{
		{Algo: "ctx-ducb", Arms: 4, Seed: 41, MaxContexts: 3},
		{Algo: "ctx-ducb", Arms: 3, Seed: 42},
		{Algo: "ctx-ducb", Arms: 5, Seed: 43},
	}
	st := NewStore(2)
	var ids []string
	for _, sp := range specs {
		s, err := st.Create(sp)
		if err != nil {
			t.Fatalf("Create(%+v): %v", sp, err)
		}
		ids = append(ids, s.ID())
	}
	drive := func(store *Store, from, n int) map[string][]int {
		arms := make(map[string][]int)
		for si, id := range ids {
			s, ok := store.Get(id)
			if !ok {
				t.Fatalf("session %s missing", id)
			}
			for r := from; r < from+n; r++ {
				v := ctxVecFor(r + si)
				seq, arm, err := s.StepWithContext(v[:])
				if err != nil {
					t.Fatalf("session %s round %d step: %v", id, r, err)
				}
				if _, err := s.Reward(seq, ckptReward(si, arm, seq)); err != nil {
					t.Fatalf("session %s round %d reward: %v", id, r, err)
				}
				arms[id] = append(arms[id], arm)
			}
		}
		return arms
	}
	drive(st, 0, 40)

	// One extra contextual session checkpointed with a step open in a
	// non-zero-signature context.
	openSess, err := st.Create(Spec{Algo: "ctx-ducb", Arms: 3, Seed: 44})
	if err != nil {
		t.Fatalf("Create open session: %v", err)
	}
	openVec := ctxVecFor(1)
	openSeq, openArm, err := openSess.StepWithContext(openVec[:])
	if err != nil {
		t.Fatalf("open step: %v", err)
	}

	data, err := st.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	want := drive(st, 40, 80)

	st2, err := RestoreCheckpoint(data, 8)
	if err != nil {
		t.Fatalf("RestoreCheckpoint: %v", err)
	}
	got := drive(st2, 40, 80)
	for _, id := range ids {
		w, g := want[id], got[id]
		for i := range w {
			if w[i] != g[i] {
				t.Fatalf("session %s diverges at decision %d: original %d, restored %d", id, i, w[i], g[i])
			}
		}
	}

	// The open contextual decision survived: its reward lands in the
	// context that opened it, and both stores then pick the same next arm.
	restored, ok := st2.Get(openSess.ID())
	if !ok {
		t.Fatalf("open session missing after restore")
	}
	if _, _, err := restored.Step(); err == nil {
		t.Fatal("second step on restored open session succeeded, want conflict")
	}
	if _, err := restored.Reward(openSeq, 0.9); err != nil {
		t.Fatalf("restored open reward: %v", err)
	}
	if _, err := openSess.Reward(openSeq, 0.9); err != nil {
		t.Fatalf("original open reward: %v", err)
	}
	_ = openArm
	for r := 0; r < 30; r++ {
		v := ctxVecFor(r)
		q1, a1, err1 := openSess.StepWithContext(v[:])
		q2, a2, err2 := restored.StepWithContext(v[:])
		if err1 != nil || err2 != nil {
			t.Fatalf("round %d: %v / %v", r, err1, err2)
		}
		if a1 != a2 {
			t.Fatalf("round %d: original arm %d, restored arm %d", r, a1, a2)
		}
		s1, _ := openSess.Info()
		s2, _ := restored.Info()
		if s1.Contexts != s2.Contexts {
			t.Fatalf("round %d: context counts %d vs %d", r, s1.Contexts, s2.Contexts)
		}
		openSess.Reward(q1, 0.5)
		restored.Reward(q2, 0.5)
	}
}

// ckptForSpec builds a store with one driven session of the given spec
// and returns its checkpoint bytes and the session id.
func ckptForSpec(t *testing.T, spec Spec, rounds int) ([]byte, string) {
	t.Helper()
	st := NewStore(1)
	s, err := st.Create(spec)
	if err != nil {
		t.Fatalf("Create(%+v): %v", spec, err)
	}
	for r := 0; r < rounds; r++ {
		var (
			seq uint64
			arm int
		)
		if _, contextual := core.ContextualBase(spec.Algo); contextual {
			v := ctxVecFor(r)
			seq, arm, err = s.StepWithContext(v[:])
		} else {
			seq, arm, err = s.Step()
		}
		if err != nil {
			t.Fatalf("step %d: %v", r, err)
		}
		if _, err := s.Reward(seq, ckptReward(0, arm, seq)); err != nil {
			t.Fatalf("reward %d: %v", r, err)
		}
	}
	data, err := st.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	return data, s.ID()
}

// mutateCheckpoint decodes, mutates, and re-encodes checkpoint bytes.
func mutateCheckpoint(t *testing.T, data []byte, mutate func(f *checkpointFile)) []byte {
	t.Helper()
	var file checkpointFile
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatalf("unmarshal checkpoint: %v", err)
	}
	mutate(&file)
	out, err := json.Marshal(file)
	if err != nil {
		t.Fatalf("marshal mutated checkpoint: %v", err)
	}
	return out
}

// wantCheckpointError asserts a restore fails with a typed
// *CheckpointError whose message names the offending record.
func wantCheckpointError(t *testing.T, data []byte, nameSubstr string) {
	t.Helper()
	_, err := RestoreCheckpoint(data, 1)
	var ce *CheckpointError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v (%T), want *CheckpointError", err, err)
	}
	if nameSubstr != "" && !strings.Contains(ce.Error(), nameSubstr) {
		t.Fatalf("error %q does not name %q", ce.Error(), nameSubstr)
	}
}

// TestRestoreContextualSkew: ctx-kind records whose agent payload
// disagrees with the session spec are typed *CheckpointError values
// naming the session, never silent skew.
func TestRestoreContextualSkew(t *testing.T) {
	base, id := ckptForSpec(t, Spec{Algo: "ctx-ducb", Arms: 4, Seed: 9}, 12)

	find := func(f *checkpointFile) *sessionCheckpoint {
		for i := range f.Sessions {
			if f.Sessions[i].ID == id {
				return &f.Sessions[i]
			}
		}
		t.Fatalf("session %s not in checkpoint", id)
		return nil
	}
	cases := []struct {
		name   string
		mutate func(f *checkpointFile)
	}{
		{"spec arms skew", func(f *checkpointFile) { find(f).Spec.Arms = 5 }},
		{"spec algo not contextual", func(f *checkpointFile) {
			ck := find(f)
			ck.Spec.Algo = "ducb"
			ck.Spec.MaxContexts = 0
		}},
		{"base algo skew", func(f *checkpointFile) {
			ck := find(f)
			var snap core.ContextualAgentSnapshot
			if err := json.Unmarshal(ck.Agent, &snap); err != nil {
				t.Fatal(err)
			}
			snap.Algo = "ucb"
			var err error
			if ck.Agent, err = json.Marshal(&snap); err != nil {
				t.Fatal(err)
			}
		}},
		{"spec algo removed", func(f *checkpointFile) { find(f).Spec.Algo = "ctx-thompson" }},
		{"open flag skew", func(f *checkpointFile) {
			ck := find(f)
			ck.Open = true
			ck.Arm = 0
		}},
		{"agent payload garbage", func(f *checkpointFile) { find(f).Agent = []byte(`{"v":1}`) }},
		{"agent payload null", func(f *checkpointFile) { find(f).Agent = []byte(`null`) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			wantCheckpointError(t, mutateCheckpoint(t, base, c.mutate), id)
		})
	}
	// The unmutated checkpoint restores cleanly (the fixture is valid).
	if _, err := RestoreCheckpoint(base, 1); err != nil {
		t.Fatalf("unmutated restore: %v", err)
	}
}

// TestRestoreAgentSpecSkew: a per-session agent record whose snapshot shape
// disagrees with its session spec — arm count or in-step flag — is a
// typed error naming the session. Before the shape cross-check, such a
// record restored an agent the protocol layer mis-modeled, corrupting on
// the next step instead of failing the restore.
func TestRestoreAgentSpecSkew(t *testing.T) {
	snapJSON := func(arms int, openStep bool) json.RawMessage {
		cfg, err := core.AlgoConfig("ducb", arms, 3, false)
		if err != nil {
			t.Fatalf("AlgoConfig: %v", err)
		}
		a, err := core.New(cfg)
		if err != nil {
			t.Fatalf("core.New: %v", err)
		}
		for i := 0; i < 5; i++ {
			a.Step()
			a.Reward(0.5)
		}
		if openStep {
			a.Step()
		}
		snap, err := a.Snapshot()
		if err != nil {
			t.Fatalf("Snapshot: %v", err)
		}
		data, err := json.Marshal(snap)
		if err != nil {
			t.Fatalf("marshal snapshot: %v", err)
		}
		return data
	}
	file := func(ck sessionCheckpoint) []byte {
		data, err := json.Marshal(checkpointFile{V: CheckpointVersion, NextID: 1,
			Sessions: []sessionCheckpoint{ck}})
		if err != nil {
			t.Fatalf("marshal file: %v", err)
		}
		return data
	}
	t.Run("arms skew", func(t *testing.T) {
		wantCheckpointError(t, file(sessionCheckpoint{
			ID: "skew-arms", Spec: Spec{Algo: "ducb", Arms: 3, Seed: 3},
			Kind: ckptAgent, Agent: snapJSON(4, false),
		}), "skew-arms")
	})
	t.Run("in-step skew closed", func(t *testing.T) {
		// Snapshot holds an open step, session record says closed.
		wantCheckpointError(t, file(sessionCheckpoint{
			ID: "skew-open", Spec: Spec{Algo: "ducb", Arms: 3, Seed: 3},
			Kind: ckptAgent, Agent: snapJSON(3, true),
		}), "skew-open")
	})
	t.Run("in-step skew open", func(t *testing.T) {
		// Session record says open, snapshot has no step in flight.
		wantCheckpointError(t, file(sessionCheckpoint{
			ID: "skew-closed", Spec: Spec{Algo: "ducb", Arms: 3, Seed: 3},
			Kind: ckptAgent, Agent: snapJSON(3, false), Open: true, Arm: 1,
		}), "skew-closed")
	})
	t.Run("algo skew", func(t *testing.T) {
		wantCheckpointError(t, file(sessionCheckpoint{
			ID: "skew-algo", Spec: Spec{Algo: "ucb", Arms: 3, Seed: 3},
			Kind: ckptAgent, Agent: snapJSON(3, false),
		}), "skew-algo")
	})
	t.Run("removed algo", func(t *testing.T) {
		wantCheckpointError(t, file(sessionCheckpoint{
			ID: "skew-thompson", Spec: Spec{Algo: "thompson", Arms: 3, Seed: 3},
			Kind: ckptAgent, Agent: snapJSON(3, false),
		}), "skew-thompson")
	})
	t.Run("valid record restores", func(t *testing.T) {
		st, err := RestoreCheckpoint(file(sessionCheckpoint{
			ID: "ok", Spec: Spec{Algo: "ducb", Arms: 3, Seed: 3},
			Kind: ckptAgent, Agent: snapJSON(3, false),
		}), 1)
		if err != nil {
			t.Fatalf("valid agent record: %v", err)
		}
		if _, ok := st.Get("ok"); !ok {
			t.Fatal("session missing after restore")
		}
	})
}

// TestRestoreMetaSpecSkew: meta records disagreeing with their spec on
// arm count or step-open state are typed errors.
func TestRestoreMetaSpecSkew(t *testing.T) {
	base, id := ckptForSpec(t,
		Spec{Arms: 3, Seed: 17, MetaPairs: [][2]float64{{0.5, 0.99}, {1.0, 0.999}}}, 10)
	cases := []struct {
		name   string
		mutate func(f *checkpointFile)
	}{
		{"arms skew", func(f *checkpointFile) { f.Sessions[0].Spec.Arms = 4 }},
		{"open skew", func(f *checkpointFile) {
			f.Sessions[0].Open = true
			f.Sessions[0].Arm = 0
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			wantCheckpointError(t, mutateCheckpoint(t, base, c.mutate), id)
		})
	}
}

// TestRestoreSlabInStepSkew: an agent record, as Checkpoint writes it
// for a plain-agent session, whose agent in_step disagrees with the
// session's open flag is a typed error, not a session that conflicts on
// its first operation.
func TestRestoreSlabInStepSkew(t *testing.T) {
	base, id := ckptForSpec(t, Spec{Algo: "ducb", Arms: 3, Seed: 5}, 10)
	t.Run("open without in-step", func(t *testing.T) {
		wantCheckpointError(t, mutateCheckpoint(t, base, func(f *checkpointFile) {
			f.Sessions[0].Open = true
			f.Sessions[0].Arm = 1
		}), id)
	})
	t.Run("in-step without open", func(t *testing.T) {
		wantCheckpointError(t, mutateCheckpoint(t, base, func(f *checkpointFile) {
			editAgentRecord(t, &f.Sessions[0], func(a *core.AgentSnapshot) {
				a.InStep = true
				a.CurrentArm = 1
			})
		}), id)
	})
}

// TestSlabValidateDeterministicColumn: when several fields of an agent
// record are simultaneously wrong, the restore names the same (first)
// problem every time — error strings are part of the operator-facing
// contract and must not depend on iteration order.
func TestSlabValidateDeterministicColumn(t *testing.T) {
	base, _ := ckptForSpec(t, Spec{Algo: "ducb", Arms: 3, Seed: 6}, 4)
	var first string
	for i := 0; i < 20; i++ {
		data := mutateCheckpoint(t, base, func(f *checkpointFile) {
			ck := &f.Sessions[0]
			ck.Open = true
			ck.Arm = 7
			editAgentRecord(t, ck, func(a *core.AgentSnapshot) {
				a.R = nil
				a.Forced = []int{9}
			})
		})
		_, err := RestoreCheckpoint(data, 1)
		var ce *CheckpointError
		if !errors.As(err, &ce) {
			t.Fatalf("run %d: err = %v (%T), want *CheckpointError", i, err, err)
		}
		if !strings.Contains(ce.Error(), "open arm 7") {
			t.Fatalf("run %d: error %q does not name the first problem %q", i, ce.Error(), "open arm 7")
		}
		if first == "" {
			first = ce.Error()
		} else if ce.Error() != first {
			t.Fatalf("run %d: error %q differs from first run %q", i, ce.Error(), first)
		}
	}
}

// editAgentRecord decodes an agent record's snapshot, applies edit, and
// re-encodes it in place.
func editAgentRecord(t *testing.T, ck *sessionCheckpoint, edit func(a *core.AgentSnapshot)) {
	t.Helper()
	var a core.AgentSnapshot
	if err := json.Unmarshal(ck.Agent, &a); err != nil {
		t.Fatalf("unmarshal agent: %v", err)
	}
	edit(&a)
	data, err := json.Marshal(&a)
	if err != nil {
		t.Fatalf("marshal agent: %v", err)
	}
	ck.Agent = data
}

// TestSignatureFromVectorEdgeValues pins the wire-vector validation
// rules the HTTP layer relies on.
func TestSignatureFromVectorEdgeValues(t *testing.T) {
	if _, err := SignatureFromVector([]float64{0, 0, 0}); err != nil {
		t.Fatalf("zero vector: %v", err)
	}
	sig, err := SignatureFromVector([]float64{70000, 0, 0})
	if err != nil {
		t.Fatalf("large phase: %v", err)
	}
	if sig != core.SignatureOf(70000, 0, 0) {
		t.Fatalf("large phase sig = %x", sig)
	}
	bad := [][]float64{
		nil,
		{},
		{1, 2},
		{1, 2, 3, 4},
		{math.NaN(), 0, 0},
		{0, math.Inf(1), 0},
		{0, 0, math.Inf(-1)},
		{-1, 0, 0},
		{0.5, 0, 0},
	}
	for _, v := range bad {
		if _, err := SignatureFromVector(v); err == nil {
			t.Fatalf("SignatureFromVector(%v) accepted", v)
		}
	}
}
