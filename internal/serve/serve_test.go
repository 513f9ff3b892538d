package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"microbandit/internal/core"
	"microbandit/internal/obs"
)

// do runs one request against the handler and decodes the JSON body (when
// out is non-nil), failing the test on a status mismatch.
func do(t *testing.T, h http.Handler, method, path, body string, wantStatus int, out any) {
	t.Helper()
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != wantStatus {
		t.Fatalf("%s %s: status %d, want %d (body %s)", method, path, w.Code, wantStatus, w.Body.String())
	}
	if out != nil {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: decode %q: %v", method, path, w.Body.String(), err)
		}
	}
}

// errCode extracts the error envelope's code from a response body.
func errCode(t *testing.T, h http.Handler, method, path, body string, wantStatus int) string {
	t.Helper()
	var eb errorBody
	do(t, h, method, path, body, wantStatus, &eb)
	return eb.Error.Code
}

func TestHealthz(t *testing.T) {
	srv := New(Config{Version: "test-1.2.3"})
	var hz healthzResponse
	do(t, srv, "GET", "/healthz", "", http.StatusOK, &hz)
	if hz.Status != "ok" || hz.Version != "test-1.2.3" || hz.Sessions != 0 {
		t.Fatalf("healthz = %+v", hz)
	}
	if hz.Shards != DefaultShards {
		t.Fatalf("Shards = %d, want %d", hz.Shards, DefaultShards)
	}
}

func TestSessionLifecycleOverHTTP(t *testing.T) {
	srv := New(Config{})

	var cr createResponse
	do(t, srv, "POST", "/v1/sessions", `{"algo":"ucb","arms":3,"seed":42}`, http.StatusCreated, &cr)
	if cr.ID == "" || cr.Arms != 3 {
		t.Fatalf("create = %+v", cr)
	}
	base := "/v1/sessions/" + cr.ID

	var ls listResponse
	do(t, srv, "GET", "/v1/sessions", "", http.StatusOK, &ls)
	if len(ls.Sessions) != 1 || ls.Sessions[0] != cr.ID {
		t.Fatalf("list = %+v", ls)
	}

	// A full decision loop.
	for i := 0; i < 5; i++ {
		var st stepResponse
		do(t, srv, "POST", base+"/step", "", http.StatusOK, &st)
		if st.Seq != uint64(i) || st.Arm < 0 || st.Arm >= 3 {
			t.Fatalf("step %d = %+v", i, st)
		}
		var rw rewardResponse
		body := fmt.Sprintf(`{"seq":%d,"reward":0.5}`, st.Seq)
		do(t, srv, "POST", base+"/reward", body, http.StatusOK, &rw)
		if rw.Steps != uint64(i+1) {
			t.Fatalf("reward %d steps = %d", i, rw.Steps)
		}
	}

	var info SessionInfo
	do(t, srv, "GET", base, "", http.StatusOK, &info)
	if info.Seq != 5 || info.Open {
		t.Fatalf("info = %+v", info)
	}

	do(t, srv, "DELETE", base, "", http.StatusNoContent, nil)
	if code := errCode(t, srv, "GET", base, "", http.StatusNotFound); code != CodeNotFound {
		t.Fatalf("get-after-delete code = %q", code)
	}
}

func TestProtocolConflictsOverHTTP(t *testing.T) {
	srv := New(Config{})
	var cr createResponse
	do(t, srv, "POST", "/v1/sessions", `{"algo":"eps","arms":2}`, http.StatusCreated, &cr)
	base := "/v1/sessions/" + cr.ID

	if code := errCode(t, srv, "POST", base+"/reward", `{"seq":0,"reward":1}`, http.StatusConflict); code != CodeNoOpenStep {
		t.Fatalf("reward-first code = %q, want %s", code, CodeNoOpenStep)
	}
	do(t, srv, "POST", base+"/step", "", http.StatusOK, nil)
	if code := errCode(t, srv, "POST", base+"/step", "", http.StatusConflict); code != CodeStepOpen {
		t.Fatalf("double-step code = %q, want %s", code, CodeStepOpen)
	}
	if code := errCode(t, srv, "POST", base+"/reward", `{"seq":9,"reward":1}`, http.StatusConflict); code != CodeSeqMismatch {
		t.Fatalf("wrong-seq code = %q, want %s", code, CodeSeqMismatch)
	}
	// The open decision survives all the rejections above.
	do(t, srv, "POST", base+"/reward", `{"seq":0,"reward":1}`, http.StatusOK, nil)
}

func TestBadRequests(t *testing.T) {
	srv := New(Config{})
	cases := []struct {
		method, path, body string
		status             int
		code               string
	}{
		{"POST", "/v1/sessions", `{not json`, http.StatusBadRequest, CodeBadRequest},
		{"POST", "/v1/sessions", `{"arms":0}`, http.StatusBadRequest, CodeBadRequest},
		{"POST", "/v1/sessions", `{"arms":2} trailing`, http.StatusBadRequest, CodeBadRequest},
		{"POST", "/v1/sessions", `{"arms":2,"faults":"stuckarm:1"}`, http.StatusBadRequest, CodeBadRequest},
		{"GET", "/v1/sessions/s-deadbeef", "", http.StatusNotFound, CodeNotFound},
		{"POST", "/v1/sessions/s-deadbeef/step", "", http.StatusNotFound, CodeNotFound},
		{"POST", "/v1/sessions/s-deadbeef/reward", `{"seq":0}`, http.StatusNotFound, CodeNotFound},
		{"DELETE", "/v1/sessions/s-deadbeef", "", http.StatusNotFound, CodeNotFound},
		{"POST", "/v1/checkpoint", "", http.StatusBadRequest, CodeBadRequest}, // no path configured
	}
	for _, c := range cases {
		if code := errCode(t, srv, c.method, c.path, c.body, c.status); code != c.code {
			t.Errorf("%s %s: code %q, want %q", c.method, c.path, code, c.code)
		}
	}
	// Unknown and removed algorithm names are refused with the valid list.
	valid := strings.Join(core.AlgoNames(), ", ")
	for _, algo := range []string{"nope", "thompson", "linucb", "ctx-thompson"} {
		var eb errorBody
		do(t, srv, "POST", "/v1/sessions", fmt.Sprintf(`{"arms":2,"algo":%q}`, algo), http.StatusBadRequest, &eb)
		if eb.Error.Code != CodeBadRequest || !strings.Contains(eb.Error.Message, valid) {
			t.Errorf("algo %q: error %+v, want %q listing %q", algo, eb.Error, CodeBadRequest, valid)
		}
	}
}

// TestNoClusterRoutes: the readiness probe and caller-named session
// creation are not part of the single-node API.
func TestNoClusterRoutes(t *testing.T) {
	srv := New(Config{})
	cases := []struct {
		method, path, body string
		status             int
	}{
		{"GET", "/readyz", "", http.StatusNotFound},
		{"PUT", "/v1/sessions/x", `{"algo":"ducb","arms":2}`, http.StatusMethodNotAllowed},
	}
	for _, c := range cases {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(c.method, c.path, strings.NewReader(c.body)))
		if w.Code != c.status {
			t.Errorf("%s %s: status %d, want %d", c.method, c.path, w.Code, c.status)
		}
	}
}

// TestPanicFaultRecovered arms the chaos panic fault at full intensity and
// verifies the handler answers 500 instead of crashing, and that the
// session remains usable.
func TestPanicFaultRecovered(t *testing.T) {
	srv := New(Config{})
	var cr createResponse
	do(t, srv, "POST", "/v1/sessions", `{"algo":"ucb","arms":2,"faults":"panic:1"}`, http.StatusCreated, &cr)
	base := "/v1/sessions/" + cr.ID

	// The fault panics at a pseudo-random step in the first few dozen
	// decisions; drive until it fires.
	fired := false
	for i := 0; i < 40 && !fired; i++ {
		var st stepResponse
		do(t, srv, "POST", base+"/step", "", http.StatusOK, &st)
		body := fmt.Sprintf(`{"seq":%d,"reward":1}`, st.Seq)
		req := httptest.NewRequest("POST", base+"/reward", strings.NewReader(body))
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		switch w.Code {
		case http.StatusOK:
			continue
		case http.StatusInternalServerError:
			var eb errorBody
			if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil || eb.Error.Code != CodeInternal {
				t.Fatalf("panic response = %q (decode err %v)", w.Body.String(), err)
			}
			fired = true
		default:
			t.Fatalf("reward %d: status %d body %s", i, w.Code, w.Body.String())
		}
	}
	if !fired {
		t.Fatal("panic fault never fired")
	}
	// The server survives; the session still answers.
	var info SessionInfo
	do(t, srv, "GET", base, "", http.StatusOK, &info)
	var hz healthzResponse
	do(t, srv, "GET", "/healthz", "", http.StatusOK, &hz)
	if hz.Sessions != 1 {
		t.Fatalf("sessions after panic = %d", hz.Sessions)
	}
}

func TestNoiseFaultSessionServes(t *testing.T) {
	srv := New(Config{})
	var cr createResponse
	do(t, srv, "POST", "/v1/sessions", `{"algo":"ducb","arms":3,"seed":5,"faults":"noise:0.2,delay:0.5"}`, http.StatusCreated, &cr)
	base := "/v1/sessions/" + cr.ID
	for i := 0; i < 20; i++ {
		var st stepResponse
		do(t, srv, "POST", base+"/step", "", http.StatusOK, &st)
		do(t, srv, "POST", base+"/reward", fmt.Sprintf(`{"seq":%d,"reward":0.3}`, st.Seq), http.StatusOK, nil)
	}
}

// TestObsWiring verifies telemetry flows from the request path into the
// configured recorder, and that a telemetry-free server emits nothing.
func TestObsWiring(t *testing.T) {
	var rec obs.Buffer
	srv := New(Config{Obs: &rec, ObsEvery: 2})
	var cr createResponse
	do(t, srv, "POST", "/v1/sessions", `{"algo":"ucb","arms":2,"seed":3}`, http.StatusCreated, &cr)
	base := "/v1/sessions/" + cr.ID
	for i := 0; i < 6; i++ {
		var st stepResponse
		do(t, srv, "POST", base+"/step", "", http.StatusOK, &st)
		do(t, srv, "POST", base+"/reward", fmt.Sprintf(`{"seq":%d,"reward":1}`, st.Seq), http.StatusOK, nil)
	}
	evs := rec.Events()
	if len(evs) == 0 {
		t.Fatal("no events recorded")
	}
	if evs[0].Kind != obs.KindRunStart || evs[0].Label != cr.ID {
		t.Fatalf("first event = %+v, want RunStart for %s", evs[0], cr.ID)
	}
	kinds := map[obs.Kind]int{}
	for _, ev := range evs {
		kinds[ev.Kind]++
	}
	if kinds[obs.KindArm] != 6 || kinds[obs.KindReward] != 6 {
		t.Fatalf("event kinds = %v, want 6 arm choices and 6 rewards", kinds)
	}
}

// TestConcurrentHTTP drives many sessions from many goroutines through
// the full handler stack; meaningful under -race.
func TestConcurrentHTTP(t *testing.T) {
	var rec obs.Buffer
	srv := New(Config{Obs: &rec, ObsEvery: 4})
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"algo":"ducb","arms":4,"seed":%d}`, w+1)
			req := httptest.NewRequest("POST", "/v1/sessions", strings.NewReader(body))
			rw := httptest.NewRecorder()
			srv.ServeHTTP(rw, req)
			if rw.Code != http.StatusCreated {
				t.Errorf("create: %d %s", rw.Code, rw.Body.String())
				return
			}
			var cr createResponse
			if err := json.Unmarshal(rw.Body.Bytes(), &cr); err != nil {
				t.Errorf("decode: %v", err)
				return
			}
			base := "/v1/sessions/" + cr.ID
			for i := 0; i < 40; i++ {
				req := httptest.NewRequest("POST", base+"/step", strings.NewReader(""))
				rw := httptest.NewRecorder()
				srv.ServeHTTP(rw, req)
				if rw.Code != http.StatusOK {
					t.Errorf("step: %d %s", rw.Code, rw.Body.String())
					return
				}
				var st stepResponse
				if err := json.Unmarshal(rw.Body.Bytes(), &st); err != nil {
					t.Errorf("decode step: %v", err)
					return
				}
				body := fmt.Sprintf(`{"seq":%d,"reward":%g}`, st.Seq, float64(st.Arm)/4)
				req = httptest.NewRequest("POST", base+"/reward", strings.NewReader(body))
				rw = httptest.NewRecorder()
				srv.ServeHTTP(rw, req)
				if rw.Code != http.StatusOK {
					t.Errorf("reward: %d %s", rw.Code, rw.Body.String())
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := srv.Store().Len(); got != workers {
		t.Fatalf("sessions = %d, want %d", got, workers)
	}
}

func TestCheckpointEndpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	srv := New(Config{CheckpointPath: path})
	do(t, srv, "POST", "/v1/sessions", `{"algo":"ucb","arms":2}`, http.StatusCreated, nil)
	var ck checkpointResponse
	do(t, srv, "POST", "/v1/checkpoint", "", http.StatusOK, &ck)
	if ck.Path != path || ck.Sessions != 1 {
		t.Fatalf("checkpoint = %+v", ck)
	}
	st, err := LoadCheckpoint(path, 0)
	if err != nil {
		t.Fatalf("LoadCheckpoint: %v", err)
	}
	if st.Len() != 1 {
		t.Fatalf("restored sessions = %d", st.Len())
	}
}

// TestResponsesAreJSON checks the content type and the error envelope
// shape on a representative success and failure.
func TestResponsesAreJSON(t *testing.T) {
	srv := New(Config{})
	req := httptest.NewRequest("GET", "/healthz", strings.NewReader(""))
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	if !bytes.HasSuffix(w.Body.Bytes(), []byte("\n")) {
		t.Fatal("body not newline-terminated")
	}

	req = httptest.NewRequest("GET", "/v1/sessions/s-none", strings.NewReader(""))
	w = httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	var eb errorBody
	if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil {
		t.Fatalf("error body not JSON: %v", err)
	}
	if eb.Error.Code != CodeNotFound || eb.Error.Message == "" {
		t.Fatalf("error envelope = %+v", eb)
	}
}
