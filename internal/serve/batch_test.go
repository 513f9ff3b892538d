package serve

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// wireResult decodes one /v1/batch per-op result for assertions.
type wireResult struct {
	Seq   *uint64 `json:"seq"`
	Arm   *int    `json:"arm"`
	Steps *uint64 `json:"steps"`
	Error *struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

type wireBatch struct {
	Results []wireResult `json:"results"`
}

func postBatch(t *testing.T, h http.Handler, body string) wireBatch {
	t.Helper()
	var out wireBatch
	do(t, h, "POST", "/v1/batch", body, http.StatusOK, &out)
	return out
}

// TestBatchMatchesScalar drives the same session population once over
// the scalar endpoints and once over /v1/batch, and requires identical
// arm streams: batching is a transport optimization, not a semantic one.
func TestBatchMatchesScalar(t *testing.T) {
	specs := []string{
		`{"arms":6,"algo":"ducb","seed":7}`,
		`{"arms":6,"algo":"eps","seed":8}`,
		`{"arms":6,"algo":"ucb","seed":9}`,
		`{"arms":6,"algo":"ducb","seed":10}`,
		`{"arms":3,"seed":11,"meta_pairs":[[0.5,0.99],[1.0,0.999]]}`, // scalar path inside the batch
	}
	checkBatchMatchesScalar(t, func() *Server { return New(Config{}) }, specs, 120)
}

// TestBatchMatchesScalarAcrossChunks runs the same equivalence over 40
// sessions of one arm count in a one-shard store, whose arena grows to
// several chunks, so each batch drives sessions of one shard spread over
// several slabs.
func TestBatchMatchesScalarAcrossChunks(t *testing.T) {
	var specs []string
	for i := 0; i < 40; i++ {
		algo := [...]string{"ducb", "eps", "ucb"}[i%3]
		specs = append(specs, fmt.Sprintf(`{"arms":6,"algo":%q,"seed":%d}`, algo, i+1))
	}
	srv := checkBatchMatchesScalar(t, func() *Server { return New(Config{Store: NewStore(1)}) }, specs, 60)
	if n := arenaChunks(srv.Store(), 6); n < 3 {
		t.Fatalf("40 sessions in one shard fill %d chunks, want >= 3", n)
	}
}

// checkBatchMatchesScalar creates the sessions of specs on one fresh
// server driven over the scalar endpoints and on another driven over
// /v1/batch, and requires identical arm streams. It returns the batched
// server.
func checkBatchMatchesScalar(t *testing.T, newServer func() *Server, specs []string, rounds int) *Server {
	t.Helper()
	runScalar := func() [][]int {
		srv := newServer()
		arms := make([][]int, len(specs))
		for si, spec := range specs {
			var cr createResponse
			do(t, srv, "POST", "/v1/sessions", spec, http.StatusCreated, &cr)
			for r := 0; r < rounds; r++ {
				var sr stepResponse
				do(t, srv, "POST", "/v1/sessions/"+cr.ID+"/step", "", http.StatusOK, &sr)
				arms[si] = append(arms[si], sr.Arm)
				reward := 0.1 + 0.8*float64(sr.Arm%3)/3
				body := fmt.Sprintf(`{"seq":%d,"reward":%g}`, sr.Seq, reward)
				do(t, srv, "POST", "/v1/sessions/"+cr.ID+"/reward", body, http.StatusOK, nil)
			}
		}
		return arms
	}

	srv := newServer()
	runBatched := func() [][]int {
		ids := make([]string, len(specs))
		for si, spec := range specs {
			var cr createResponse
			do(t, srv, "POST", "/v1/sessions", spec, http.StatusCreated, &cr)
			ids[si] = cr.ID
		}
		arms := make([][]int, len(specs))
		seqs := make([]uint64, len(specs))
		for r := 0; r < rounds; r++ {
			var b strings.Builder
			b.WriteString(`{"ops":[`)
			for si, id := range ids {
				if si > 0 {
					b.WriteString(",")
				}
				if r > 0 {
					prevArm := arms[si][r-1]
					reward := 0.1 + 0.8*float64(prevArm%3)/3
					fmt.Fprintf(&b, `{"id":%q,"seq":%d,"reward":%g},`, id, seqs[si], reward)
				}
				fmt.Fprintf(&b, `{"id":%q,"step":true}`, id)
			}
			b.WriteString(`]}`)
			out := postBatch(t, srv, b.String())
			ri := 0
			for si := range ids {
				if r > 0 {
					rw := out.Results[ri]
					ri++
					if rw.Steps == nil {
						t.Fatalf("round %d session %d: reward result = %+v", r, si, rw)
					}
				}
				st := out.Results[ri]
				ri++
				if st.Seq == nil || st.Arm == nil {
					t.Fatalf("round %d session %d: step result = %+v", r, si, st)
				}
				seqs[si] = *st.Seq
				arms[si] = append(arms[si], *st.Arm)
			}
		}
		// Close the last open decisions so both populations end even.
		return arms
	}

	want := runScalar()
	got := runBatched()
	for si := range specs {
		for r := 0; r < rounds; r++ {
			if got[si][r] != want[si][r] {
				t.Fatalf("session %d round %d: batch arm %d, scalar arm %d", si, r, got[si][r], want[si][r])
			}
		}
	}
	return srv
}

// TestBatchPerOpErrors checks that one batch can mix successes and typed
// failures, answered per-op under HTTP 200.
func TestBatchPerOpErrors(t *testing.T) {
	srv := New(Config{})
	var cr createResponse
	do(t, srv, "POST", "/v1/sessions", `{"arms":4,"algo":"ducb","seed":3}`, http.StatusCreated, &cr)

	// Reward with nothing open; unknown id; valid step.
	out := postBatch(t, srv, fmt.Sprintf(
		`{"ops":[{"id":%q,"seq":0,"reward":0.5},{"id":"s-nope","step":true},{"id":%q,"step":true}]}`,
		cr.ID, cr.ID))
	if len(out.Results) != 3 {
		t.Fatalf("results = %d, want 3", len(out.Results))
	}
	if out.Results[0].Error == nil || out.Results[0].Error.Code != CodeNoOpenStep {
		t.Fatalf("reward-without-step result = %+v, want %s", out.Results[0], CodeNoOpenStep)
	}
	if out.Results[1].Error == nil || out.Results[1].Error.Code != CodeNotFound {
		t.Fatalf("unknown-id result = %+v, want %s", out.Results[1], CodeNotFound)
	}
	if out.Results[2].Seq == nil || out.Results[2].Arm == nil {
		t.Fatalf("step result = %+v, want success", out.Results[2])
	}

	// A second step while open (same batch: demoted to the scalar path),
	// then a reward quoting the wrong seq.
	out = postBatch(t, srv, fmt.Sprintf(
		`{"ops":[{"id":%q,"step":true},{"id":%q,"seq":41,"reward":0.5}]}`, cr.ID, cr.ID))
	if out.Results[0].Error == nil || out.Results[0].Error.Code != CodeStepOpen {
		t.Fatalf("double-step result = %+v, want %s", out.Results[0], CodeStepOpen)
	}
	if out.Results[1].Error == nil || out.Results[1].Error.Code != CodeSeqMismatch {
		t.Fatalf("stale-reward result = %+v, want %s", out.Results[1], CodeSeqMismatch)
	}

	// The open decision is still rewardable the ordinary way.
	out = postBatch(t, srv, fmt.Sprintf(`{"ops":[{"id":%q,"seq":0,"reward":1}]}`, cr.ID))
	if out.Results[0].Steps == nil || *out.Results[0].Steps != 1 {
		t.Fatalf("closing reward result = %+v", out.Results[0])
	}
}

// TestBatchRewardBeforeStepOrder checks the documented in-batch
// ordering: a session's reward applies before its step, so the
// closed-loop pattern works in one request; a step posted before its
// reward in body order is demoted and fails like the scalar sequence
// would.
func TestBatchRewardBeforeStepOrder(t *testing.T) {
	srv := New(Config{})
	var cr createResponse
	do(t, srv, "POST", "/v1/sessions", `{"arms":4,"algo":"ducb","seed":5}`, http.StatusCreated, &cr)

	out := postBatch(t, srv, fmt.Sprintf(`{"ops":[{"id":%q,"step":true}]}`, cr.ID))
	seq := *out.Results[0].Seq

	// step before reward in body order: the step must see the still-open
	// decision and fail, the reward then closes it.
	out = postBatch(t, srv, fmt.Sprintf(
		`{"ops":[{"id":%q,"step":true},{"id":%q,"seq":%d,"reward":0.25}]}`, cr.ID, cr.ID, seq))
	if out.Results[0].Error == nil || out.Results[0].Error.Code != CodeStepOpen {
		t.Fatalf("out-of-order step = %+v, want %s", out.Results[0], CodeStepOpen)
	}
	if out.Results[1].Steps == nil {
		t.Fatalf("reward after failed step = %+v, want success", out.Results[1])
	}

	// reward+step in body order: both succeed in one batch.
	out = postBatch(t, srv, fmt.Sprintf(
		`{"ops":[{"id":%q,"step":true}]}`, cr.ID))
	seq = *out.Results[0].Seq
	out = postBatch(t, srv, fmt.Sprintf(
		`{"ops":[{"id":%q,"seq":%d,"reward":0.5},{"id":%q,"step":true}]}`, cr.ID, seq, cr.ID))
	if out.Results[0].Steps == nil || out.Results[1].Seq == nil {
		t.Fatalf("closed-loop pair = %+v", out.Results)
	}
}

// TestBatchDeletedSession checks the delete race surface: ops on a
// deleted session answer not_found per-op.
func TestBatchDeletedSession(t *testing.T) {
	srv := New(Config{})
	var cr createResponse
	do(t, srv, "POST", "/v1/sessions", `{"arms":4,"algo":"ducb","seed":5}`, http.StatusCreated, &cr)
	do(t, srv, "DELETE", "/v1/sessions/"+cr.ID, "", http.StatusNoContent, nil)
	out := postBatch(t, srv, fmt.Sprintf(`{"ops":[{"id":%q,"step":true}]}`, cr.ID))
	if out.Results[0].Error == nil || out.Results[0].Error.Code != CodeNotFound {
		t.Fatalf("deleted-session result = %+v, want %s", out.Results[0], CodeNotFound)
	}
}

// TestBatchFaultedSessionUsesScalarPath checks that a session with an
// armed fault spec still works through /v1/batch: its ops run through
// the fault-wrapped drive controller, as on the scalar endpoints.
func TestBatchFaultedSessionUsesScalarPath(t *testing.T) {
	srv := New(Config{})
	var cr createResponse
	do(t, srv, "POST", "/v1/sessions", `{"arms":4,"algo":"ducb","seed":5,"faults":"noise:0.01"}`, http.StatusCreated, &cr)
	if _, ok := srv.Store().Get(cr.ID); !ok {
		t.Fatal("session missing")
	}
	out := postBatch(t, srv, fmt.Sprintf(`{"ops":[{"id":%q,"step":true}]}`, cr.ID))
	if out.Results[0].Seq == nil {
		t.Fatalf("faulted-session step = %+v, want success", out.Results[0])
	}
}

// TestBatchBadBodies checks whole-request rejection: a malformed body is
// a 400, not a partial execution.
func TestBatchBadBodies(t *testing.T) {
	srv := New(Config{})
	for _, body := range []string{
		``,
		`{}`,
		`{"ops":{}}`,
		`{"ops":[{"id":"x"}]}`, // neither step nor reward
		`{"ops":[{"id":"x","step":true}]} trailing`,             // trailing data
		`{"ops":[{"id":"x","seq":1}]}`,                          // seq without reward
		`{"ops":[{"id":"x","reward":0.5}]}`,                     // reward without seq
		`{"ops":[{"id":"x","step":true,"extra":1}]}`,            // unknown key
		`{"ops":[{"id":"x\\u0041","step":true}]}`,               // escaped id
		`{"ops":[{"id":"x","seq":01,"reward":0.5}]}`,            // leading zero
		`{"ops":[{"id":"x","seq":1,"reward":+0.5}]}`,            // non-JSON number
		`{"ops":[{"id":"","step":true}]}`,                       // empty id
		`{"ops":[{"id":"x","step":true},]}`,                     // dangling comma
		`{"ops":[{"id":"x","seq":-1,"reward":0.5}]}`,            // negative seq
		`{"ops":[{"id":"x","step":"yes"}]}`,                     // non-bool step
		`{"ops":[{"id":"x","step":true}],"more":true}`,          // unknown top-level key
		`[{"id":"x","step":true}]`,                              // not an object
		`{"ops":[{"id":"x","step":true,"reward":0.5,"seq":1}]}`, // both kinds
	} {
		if code := errCode(t, srv, "POST", "/v1/batch", body, http.StatusBadRequest); code != CodeBadRequest {
			t.Fatalf("body %q: code %q, want %s", body, code, CodeBadRequest)
		}
	}
}

// TestBatchEmptyOps: an empty ops array is a valid no-op batch.
func TestBatchEmptyOps(t *testing.T) {
	srv := New(Config{})
	out := postBatch(t, srv, `{"ops":[]}`)
	if len(out.Results) != 0 {
		t.Fatalf("results = %+v, want empty", out.Results)
	}
}

// TestBatchDecodeAllocs pins the decode path at zero steady-state heap
// allocations: the batch endpoint's entire point is amortization, and a
// per-op allocation would quietly cancel it.
func TestBatchDecodeAllocs(t *testing.T) {
	var b strings.Builder
	b.WriteString(`{"ops":[`)
	for i := 0; i < 64; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, `{"id":"s-%08x","seq":%d,"reward":0.%d},{"id":"s-%08x","step":true}`, i, i, i%10, i)
	}
	b.WriteString(`]}`)
	body := []byte(b.String())

	ops := make([]batchOp, 0, 256)
	allocs := testing.AllocsPerRun(200, func() {
		var err error
		ops, err = parseBatch(body, ops[:0])
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("parseBatch allocates %.1f times per body, want 0", allocs)
	}

	res := make([]batchResult, 128)
	for i := range res {
		switch i % 3 {
		case 0:
			res[i] = batchResult{kind: resStep, n: uint64(i), arm: int32(i % 7)}
		case 1:
			res[i] = batchResult{kind: resReward, n: uint64(i)}
		default:
			res[i] = batchResult{kind: resError, code: CodeSeqMismatch, msg: "reward for decision 3, but decision 4 is open"}
		}
	}
	out := make([]byte, 0, 1<<14)
	allocs = testing.AllocsPerRun(200, func() {
		out = appendBatchResults(out[:0], res)
	})
	if allocs != 0 {
		t.Fatalf("appendBatchResults allocates %.1f times per body, want 0", allocs)
	}
}

// TestRunBatchAllocs pins execution itself — session lookup, the
// protocol calls and the agents' updates — at zero steady-state heap
// allocations over a warm 64-session reward+step body. Every round
// rewards the decisions the previous round opened, so every op succeeds
// (an error result would format its message).
func TestRunBatchAllocs(t *testing.T) {
	srv := New(Config{})
	const n = 64
	ids := make([]string, n)
	seqs := make([]uint64, n)
	for i := range ids {
		se, err := srv.Store().Create(Spec{Algo: "ducb", Arms: 8, Seed: uint64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		if seqs[i], _, err = se.Step(); err != nil {
			t.Fatal(err)
		}
		ids[i] = se.ID()
	}
	sc := new(batchScratch)
	round := func() {
		body := append(sc.body[:0], `{"ops":[`...)
		for i, id := range ids {
			if i > 0 {
				body = append(body, ',')
			}
			body = append(body, `{"id":"`...)
			body = append(body, id...)
			body = append(body, `","seq":`...)
			body = strconv.AppendUint(body, seqs[i], 10)
			body = append(body, `,"reward":0.5},{"id":"`...)
			body = append(body, id...)
			body = append(body, `","step":true}`...)
		}
		sc.body = append(body, `]}`...)
		var err error
		if sc.ops, err = parseBatch(sc.body, sc.ops[:0]); err != nil {
			t.Fatal(err)
		}
		srv.runBatch(sc)
		for i := range ids {
			rw, st := sc.res[2*i], sc.res[2*i+1]
			if rw.kind != resReward || st.kind != resStep {
				t.Fatalf("session %s: results %+v %+v, want reward then step", ids[i], rw, st)
			}
			seqs[i] = st.n
		}
	}
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("runBatch allocates %.1f times per 64-session round, want 0", allocs)
	}
}

// TestBatchConcurrent hammers /v1/batch from several goroutines over an
// overlapping session population, with deletes and re-creates mixed in.
// Run under -race this is the batch plane's data-race probe; the
// assertions only require that every response is well-formed — protocol
// conflicts between racing batches are expected and typed. The one-shard
// case holds its sessions in several chunks of one arena, so batches
// drive sessions across chunks of a shard while re-creates reuse freed
// slots in any of them.
func TestBatchConcurrent(t *testing.T) {
	for _, c := range []struct {
		name             string
		shards, sessions int
	}{
		{"4shards", 4, 24},
		{"1shard-chunks", 1, 40},
	} {
		t.Run(c.name, func(t *testing.T) {
			srv := New(Config{Store: NewStore(c.shards)})
			hammerBatch(t, srv, c.sessions)
			if c.shards == 1 {
				if n := arenaChunks(srv.Store(), 5); n < 3 {
					t.Fatalf("%d sessions in one shard fill %d chunks, want >= 3", c.sessions, n)
				}
			}
		})
	}
}

// hammerBatch creates the given number of five-arm DUCB sessions on
// srv, then races four batch clients against a goroutine that deletes
// and re-creates sessions.
func hammerBatch(t *testing.T, srv *Server, sessions int) {
	ids := make([]string, sessions)
	for i := range ids {
		var cr createResponse
		spec := fmt.Sprintf(`{"arms":5,"algo":"ducb","seed":%d}`, i+1)
		do(t, srv, "POST", "/v1/sessions", spec, http.StatusCreated, &cr)
		ids[i] = cr.ID
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 99))
			seqs := make(map[string]uint64)
			for iter := 0; iter < 200; iter++ {
				var b strings.Builder
				b.WriteString(`{"ops":[`)
				var opIDs []string // the session of each op, in body order
				n := 1 + rng.IntN(8)
				for i := 0; i < n; i++ {
					if i > 0 {
						b.WriteString(",")
					}
					id := ids[rng.IntN(sessions)]
					if seq, ok := seqs[id]; ok && rng.IntN(2) == 0 {
						fmt.Fprintf(&b, `{"id":%q,"seq":%d,"reward":0.5},{"id":%q,"step":true}`, id, seq, id)
						opIDs = append(opIDs, id, id)
					} else {
						fmt.Fprintf(&b, `{"id":%q,"step":true}`, id)
						opIDs = append(opIDs, id)
					}
				}
				b.WriteString(`]}`)
				req := httptest.NewRequest("POST", "/v1/batch", strings.NewReader(b.String()))
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Errorf("batch status %d: %s", rec.Code, rec.Body.String())
					return
				}
				var out wireBatch
				if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
					t.Errorf("batch response undecodable: %v", err)
					return
				}
				if len(out.Results) != len(opIDs) {
					t.Errorf("%d results for %d ops", len(out.Results), len(opIDs))
					return
				}
				// Remember each session's last step seq (best effort
				// under racing writers) so later iterations exercise
				// the reward path for real; seqs another client
				// overtook earn typed conflicts.
				for i, r := range out.Results {
					if r.Seq != nil {
						seqs[opIDs[i]] = *r.Seq
					}
				}
			}
		}(w)
	}
	// One goroutine churns deletes and creates to race slot reuse
	// against in-flight batches.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for iter := 0; iter < 60; iter++ {
			id := ids[iter%sessions]
			req := httptest.NewRequest("DELETE", "/v1/sessions/"+id, strings.NewReader(""))
			srv.ServeHTTP(httptest.NewRecorder(), req)
			req = httptest.NewRequest("POST", "/v1/sessions", strings.NewReader(`{"arms":5,"algo":"ducb","seed":77}`))
			srv.ServeHTTP(httptest.NewRecorder(), req)
		}
	}()
	wg.Wait()
}
