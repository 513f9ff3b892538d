// Package serve is the bandit-as-a-service layer: it exposes the core
// agents (internal/core) over a stdlib net/http JSON API so any process —
// a simulator, a tuning harness, a fleet of microservices — can drive
// session-based choose/reward decision loops without linking this
// repository.
//
// Architecture, bottom up:
//
//   - Session (session.go): one agent plus the sequencing state that
//     makes the step/reward protocol safe over a retrying transport.
//     Per-session sequence numbers reject duplicate and out-of-order
//     reward posts deterministically.
//   - Store (store.go): a power-of-two-sharded session table with
//     per-shard locks, so map access never serializes the request path.
//   - Checkpoint (checkpoint.go): versioned JSON persistence of every
//     session, built on core's Snapshot/Restore codec. A restored server
//     continues every fault-free session's exact arm sequence.
//   - Server (this file): the HTTP surface, with nil-guarded
//     internal/obs telemetry in the request path and server-side
//     internal/fault chaos specs per session.
//   - Batch plane (batch.go, batchcodec.go): POST /v1/batch executes
//     many step/reward ops per request, each through the same Session
//     call the scalar endpoints make, in body order, with a
//     zero-allocation request codec.
//
// The load generator lives in the loadgen subpackage; the CLI wrapping
// both is cmd/mab-serve.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"microbandit/internal/obs"
)

// maxBodyBytes bounds request bodies; every valid request fits well
// within it.
const maxBodyBytes = 1 << 20

// Config configures a Server.
type Config struct {
	// Store backs the server; nil builds a fresh NewStore(0).
	Store *Store
	// Obs, when non-nil, receives the telemetry stream of every
	// session's agent (arm choices, rewards, snapshots) plus a
	// KindRunStart event per created session. The recorder is wrapped
	// with a mutex before it is shared; nil keeps the request path
	// entirely telemetry-free (one nil check per session create).
	Obs obs.Recorder
	// ObsEvery is the agent snapshot cadence in completed decisions
	// (0 disables snapshots).
	ObsEvery int
	// Version is reported by GET /healthz.
	Version string
	// CheckpointPath, when non-empty, enables POST /v1/checkpoint.
	CheckpointPath string
}

// Server is the bandit-as-a-service HTTP surface. Construct with New;
// it is safe for concurrent use by any number of connections.
type Server struct {
	store    *Store
	rec      obs.Recorder // mutex-wrapped; nil when telemetry is off
	obsEvery int
	version  string
	ckptPath string
	mux      *http.ServeMux
}

// New builds a server over cfg.
func New(cfg Config) *Server {
	st := cfg.Store
	if st == nil {
		st = NewStore(0)
	}
	s := &Server{
		store:    st,
		obsEvery: cfg.ObsEvery,
		version:  cfg.Version,
		ckptPath: cfg.CheckpointPath,
	}
	if cfg.Obs != nil {
		s.rec = &lockedRecorder{inner: cfg.Obs}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("POST /v1/sessions", s.handleCreate)
	mux.HandleFunc("GET /v1/sessions", s.handleList)
	mux.HandleFunc("GET /v1/sessions/{id}", s.handleGet)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleDelete)
	mux.HandleFunc("POST /v1/sessions/{id}/step", s.handleStep)
	mux.HandleFunc("POST /v1/sessions/{id}/reward", s.handleReward)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("POST /v1/checkpoint", s.handleCheckpoint)
	s.mux = mux
	return s
}

// Store returns the backing session store.
func (s *Server) Store() *Store { return s.store }

// ServeHTTP implements http.Handler with panic recovery: a panicking
// handler (an injected chaos fault, or a bug) answers 500 with a typed
// error instead of tearing down the connection. Session state stays
// consistent because mutations happen under the session lock before any
// panic-prone call returns to the handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if v := recover(); v != nil {
			writeError(w, http.StatusInternalServerError, CodeInternal,
				fmt.Sprintf("handler panic: %v", v))
		}
	}()
	s.mux.ServeHTTP(w, r)
}

// lockedRecorder makes a single Recorder safe for the server's
// concurrent sessions. Sessions already serialize their own emissions
// under the session lock; this lock orders events across sessions.
type lockedRecorder struct {
	mu    sync.Mutex
	inner obs.Recorder
}

// Record implements obs.Recorder.
func (l *lockedRecorder) Record(ev obs.Event) {
	l.mu.Lock()
	l.inner.Record(ev)
	l.mu.Unlock()
}

// ---------------------------------------------------------------------
// Wire types

// stepRequest is the optional /v1/step body: absent (or empty) for a
// plain step, or a context vector [phase, mpki, bw_util] selecting the
// signature context a contextual session decides in.
type stepRequest struct {
	Context []float64 `json:"context"`
}

type stepResponse struct {
	Seq uint64 `json:"seq"`
	Arm int    `json:"arm"`
}

type rewardRequest struct {
	Seq    uint64  `json:"seq"`
	Reward float64 `json:"reward"`
}

type rewardResponse struct {
	Steps uint64 `json:"steps"`
}

type createResponse struct {
	ID   string `json:"id"`
	Arms int    `json:"arms"`
}

type healthzResponse struct {
	Status   string `json:"status"`
	Version  string `json:"version,omitempty"`
	Sessions int    `json:"sessions"`
	Shards   int    `json:"shards"`
}

type listResponse struct {
	Sessions []string `json:"sessions"`
}

type checkpointResponse struct {
	Path     string `json:"path"`
	Sessions int    `json:"sessions"`
}

type errorBody struct {
	Error errorDetail `json:"error"`
}

type errorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ---------------------------------------------------------------------
// Handlers

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, healthzResponse{
		Status:   "ok",
		Version:  s.version,
		Sessions: s.store.Len(),
		Shards:   s.store.Shards(),
	})
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	if !decodeBody(w, r, &spec) {
		return
	}
	sess, err := s.store.Create(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	s.attachObs(sess)
	writeJSON(w, http.StatusCreated, createResponse{ID: sess.ID(), Arms: sess.Spec().Arms})
}

// attachObs wires a freshly created session into the telemetry stream.
func (s *Server) attachObs(sess *Session) {
	if s.rec == nil {
		return
	}
	s.rec.Record(obs.Event{Kind: obs.KindRunStart, Label: sess.ID()})
	obs.Attach(sess.agent, s.rec, s.obsEvery)
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	ids := s.store.IDs()
	if ids == nil {
		ids = []string{}
	}
	writeJSON(w, http.StatusOK, listResponse{Sessions: ids})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	info, err := sess.Info()
	if err != nil {
		writeProtocolError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.store.Delete(id) {
		writeError(w, http.StatusNotFound, CodeNotFound, "no session "+id)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleStep(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	// The body is optional: an empty body (the historical wire form) is a
	// plain step; a JSON object may carry a context vector.
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "body: "+err.Error())
		return
	}
	var ctxVec []float64
	if len(bytes.TrimSpace(body)) > 0 {
		var req stepRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		if err := dec.Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, CodeBadRequest, "body: "+err.Error())
			return
		}
		if dec.More() {
			writeError(w, http.StatusBadRequest, CodeBadRequest, "body: trailing data after JSON value")
			return
		}
		ctxVec = req.Context
	}
	seq, arm, err := sess.StepWithContext(ctxVec)
	if err != nil {
		writeProtocolError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, stepResponse{Seq: seq, Arm: arm})
}

func (s *Server) handleReward(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	var req rewardRequest
	if !decodeBody(w, r, &req) {
		return
	}
	steps, err := sess.Reward(req.Seq, req.Reward)
	if err != nil {
		writeProtocolError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, rewardResponse{Steps: steps})
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, _ *http.Request) {
	if s.ckptPath == "" {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "server runs without a checkpoint path")
		return
	}
	n := s.store.Len()
	if err := s.store.WriteCheckpoint(s.ckptPath); err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, checkpointResponse{Path: s.ckptPath, Sessions: n})
}

// ---------------------------------------------------------------------
// Helpers

// session resolves the request's {id} path value, answering 404 itself
// when the session does not exist.
func (s *Server) session(w http.ResponseWriter, r *http.Request) (*Session, bool) {
	id := r.PathValue("id")
	sess, ok := s.store.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound, "no session "+id)
		return nil, false
	}
	return sess, true
}

// decodeBody decodes a bounded JSON request body into v, answering 400
// itself on malformed input. Trailing garbage after the JSON value is
// rejected — it indicates a framing bug on the client side.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "body: "+err.Error())
		return false
	}
	if dec.More() {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "body: trailing data after JSON value")
		return false
	}
	return true
}

// writeProtocolError maps session protocol violations to 409 — except
// the deleted-session race, which is a 404 like any other missing
// session, and malformed-request rejections (bad context vectors,
// contexts on non-contextual sessions), which are 400s — and anything
// else to 500.
func writeProtocolError(w http.ResponseWriter, err error) {
	var pe *ProtocolError
	if errors.As(err, &pe) {
		status := http.StatusConflict
		switch pe.Code {
		case CodeNotFound:
			status = http.StatusNotFound
		case CodeBadRequest:
			status = http.StatusBadRequest
		}
		writeError(w, status, pe.Code, pe.Msg)
		return
	}
	writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, errorBody{Error: errorDetail{Code: code, Message: msg}})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	data, err := json.Marshal(v)
	if err != nil {
		// Unreachable for the fixed wire types; keep the connection sane.
		io.WriteString(w, `{"error":{"code":"internal","message":"encode failure"}}`)
		return
	}
	data = append(data, '\n')
	w.Write(data)
}
