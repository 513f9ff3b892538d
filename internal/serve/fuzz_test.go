package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzSpecDecode throws arbitrary bytes at the session-create endpoint:
// the handler must answer (2xx or a clean 4xx JSON envelope) without
// panicking, and any accepted spec must actually serve a decision.
func FuzzSpecDecode(f *testing.F) {
	f.Add([]byte(`{"algo":"ducb","arms":4,"seed":9}`))
	f.Add([]byte(`{"arms":3,"meta_pairs":[[0.5,0.99],[1,0.999]]}`))
	f.Add([]byte(`{"arms":2,"faults":"noise:0.5,delay:1"}`))
	f.Add([]byte(`{"arms":-1}`))
	f.Add([]byte(`{"arms":1e9}`))
	f.Add([]byte(`{"algo":"static:1","arms":2}`))
	f.Add([]byte(`{"arms":2} {"arms":3}`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte("\x00\xff{"))

	f.Fuzz(func(t *testing.T, body []byte) {
		srv := New(Config{})
		req := httptest.NewRequest("POST", "/v1/sessions", strings.NewReader(string(body)))
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req) // must not panic (ServeHTTP recovers, but recorder surfaces 500)
		switch w.Code {
		case http.StatusCreated:
			var cr createResponse
			if err := json.Unmarshal(w.Body.Bytes(), &cr); err != nil {
				t.Fatalf("created but body %q: %v", w.Body.String(), err)
			}
			sess, ok := srv.Store().Get(cr.ID)
			if !ok {
				t.Fatalf("created id %q not in store", cr.ID)
			}
			seq, arm, err := sess.Step()
			if err != nil {
				t.Fatalf("accepted spec cannot step: %v", err)
			}
			if arm < 0 || arm >= sess.Spec().Arms {
				t.Fatalf("arm %d outside [0,%d)", arm, sess.Spec().Arms)
			}
			if _, err := sess.Reward(seq, 0.5); err != nil {
				t.Fatalf("accepted spec cannot reward: %v", err)
			}
		case http.StatusBadRequest:
			var eb errorBody
			if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil || eb.Error.Code != CodeBadRequest {
				t.Fatalf("bad request with body %q (%v)", w.Body.String(), err)
			}
		default:
			t.Fatalf("unexpected status %d for %q", w.Code, body)
		}
	})
}

// FuzzRestoreCheckpoint throws arbitrary bytes at the checkpoint decoder:
// it must return a typed *CheckpointError or a store whose sessions all
// serve — never panic.
func FuzzRestoreCheckpoint(f *testing.F) {
	// A genuine checkpoint as the richest seed.
	st := NewStore(2)
	for _, sp := range []Spec{
		{Algo: "ducb", Arms: 3, Seed: 1},
		{Algo: "static:0", Arms: 2},
		{Arms: 2, Seed: 3, MetaPairs: [][2]float64{{0.5, 0.99}, {1, 0.999}}},
	} {
		s, err := st.Create(sp)
		if err != nil {
			f.Fatal(err)
		}
		seq, _, _ := s.Step()
		s.Reward(seq, 0.7)
	}
	good, err := st.Checkpoint()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte(`{"v":3,"next_id":0,"sessions":[]}`))
	f.Add([]byte(`{"v":3}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add(good[:len(good)/3])
	f.Add([]byte(`{"v":3,"next_id":1,"sessions":[{"id":"s-1","spec":{"arms":2},"kind":"agent","agent":{"v":1,"arms":2}}]}`))
	// A version-2 file (column slab groups) is refused, not half-read.
	v2 := []byte(`{"v":2,"next_id":1,"sessions":[],"slabs":[{"algo":"ducb","arms":2,"ids":["s-1"]}]}`)
	var ce *CheckpointError
	if _, err := RestoreCheckpoint(v2, 2); !errors.As(err, &ce) || !strings.Contains(ce.Error(), "version 2") {
		f.Fatalf("v2 seed: err = %v, want *CheckpointError naming version 2", err)
	}
	f.Add(v2)

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := RestoreCheckpoint(data, 2)
		if err != nil {
			var ce *CheckpointError
			if !errors.As(err, &ce) {
				t.Fatalf("untyped error %T: %v", err, err)
			}
			return
		}
		// Whatever decoded must serve: every restored session can finish
		// its open decision (if any) and then run a full one.
		for _, id := range st.IDs() {
			s, ok := st.Get(id)
			if !ok {
				continue
			}
			info, err := s.Info()
			if err != nil {
				continue // raced a delete
			}
			if info.Open {
				if _, err := s.Reward(info.Seq, 0.5); err != nil {
					t.Fatalf("session %s cannot close its open decision: %v", id, err)
				}
			}
			seq, arm, err := s.Step()
			if err != nil {
				t.Fatalf("session %s cannot step: %v", id, err)
			}
			if arm < 0 || arm >= s.Spec().Arms {
				t.Fatalf("session %s arm %d outside [0,%d)", id, arm, s.Spec().Arms)
			}
			if _, err := s.Reward(seq, 0.5); err != nil {
				t.Fatalf("session %s cannot reward: %v", id, err)
			}
		}
	})
}

// FuzzBatchDecode cross-checks the hand-rolled /v1/batch parser against
// encoding/json: rejecting a body is always allowed (strictness is part
// of the contract), but every body parseBatch accepts must decode to
// exactly the operations encoding/json sees — same ids, kinds, seqs,
// and reward bits.
func FuzzBatchDecode(f *testing.F) {
	f.Add([]byte(`{"ops":[{"id":"s-00000001","step":true}]}`))
	f.Add([]byte(`{"ops":[{"id":"s-1","seq":3,"reward":0.5},{"id":"a","step":false,"seq":1,"reward":-1e-3}]}`))
	f.Add([]byte(`{"ops":[]}`))
	f.Add([]byte(`{ "ops" : [ { "reward" : 1.25e2 , "seq" : 10 , "id" : "x" } ] }`))
	f.Add([]byte(`{"ops":[{"id":"x","seq":18446744073709551615,"reward":0}]}`))
	f.Add([]byte(`{"ops":[{"id":"x","step":true},{"id":"x","seq":0,"reward":0.25}]}`))
	f.Add([]byte(`{"ops":[{"id":"x","seq":01,"reward":1}]}`))
	f.Add([]byte(`{"ops":[{"id":"A","step":true}]}`))
	f.Add([]byte(`{"ops":{}}`))
	f.Add([]byte(``))
	f.Add([]byte(`{"ops":[{"id":"c1","step":true,"ctx":[3,1.5,0.25]}]}`))
	f.Add([]byte(`{"ops":[{"ctx":[0,0,0],"id":"c2","step":true}]}`))
	f.Add([]byte(`{"ops":[{"id":"c3","seq":1,"reward":0.5,"ctx":[1,2,3]}]}`))
	f.Add([]byte(`{"ops":[{"id":"c4","step":true,"ctx":[1,2]}]}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		ops, err := parseBatch(body, nil)
		if err != nil {
			return // must only not panic; strict rejections are fine
		}
		var ref struct {
			Ops []struct {
				ID     *string    `json:"id"`
				Step   *bool      `json:"step"`
				Seq    *uint64    `json:"seq"`
				Reward *float64   `json:"reward"`
				Ctx    *[]float64 `json:"ctx"`
			} `json:"ops"`
		}
		if err := json.Unmarshal(body, &ref); err != nil {
			t.Fatalf("parseBatch accepted %q but encoding/json rejects it: %v", body, err)
		}
		if len(ref.Ops) != len(ops) {
			t.Fatalf("parseBatch found %d ops, encoding/json %d in %q", len(ops), len(ref.Ops), body)
		}
		for i, op := range ops {
			ro := ref.Ops[i]
			id := string(body[op.idOff:op.idEnd])
			if ro.ID == nil || *ro.ID != id {
				t.Fatalf("op %d: id %q vs encoding/json %v", i, id, ro.ID)
			}
			isReward := ro.Seq != nil && ro.Reward != nil
			switch op.kind {
			case opReward:
				if !isReward {
					t.Fatalf("op %d: parsed as reward, encoding/json sees %+v", i, ro)
				}
				if *ro.Seq != op.seq || *ro.Reward != op.reward {
					t.Fatalf("op %d: (seq %d, reward %v) vs encoding/json (%d, %v)",
						i, op.seq, op.reward, *ro.Seq, *ro.Reward)
				}
			case opStep:
				if isReward || ro.Step == nil || !*ro.Step {
					t.Fatalf("op %d: parsed as step, encoding/json sees %+v", i, ro)
				}
				if op.hasCtx {
					if ro.Ctx == nil || len(*ro.Ctx) != 3 {
						t.Fatalf("op %d: parsed ctx, encoding/json sees %+v", i, ro)
					}
					for j := 0; j < 3; j++ {
						if (*ro.Ctx)[j] != op.ctx[j] {
							t.Fatalf("op %d ctx[%d]: %v vs encoding/json %v",
								i, j, op.ctx[j], (*ro.Ctx)[j])
						}
					}
				} else if ro.Ctx != nil {
					t.Fatalf("op %d: encoding/json sees ctx %v, parser saw none", i, *ro.Ctx)
				}
			default:
				t.Fatalf("op %d: bad kind %d", i, op.kind)
			}
		}
	})
}
