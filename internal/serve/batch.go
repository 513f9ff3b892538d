package serve

import (
	"errors"
	"io"
	"net/http"
	"sync"
)

// This file is the /v1/batch execution plane. One request carries many
// step and reward operations; the handler amortizes what the scalar
// endpoints pay per decision — HTTP framing, body decode, response
// encode — over the whole batch with a zero-allocation request codec.
//
// Semantics are exactly the scalar protocol's, because every op runs
// through the same Session.StepWithContext or Session.Reward call the
// scalar endpoints make, in body order. Each operation succeeds or fails
// independently, with the same typed codes the scalar endpoints answer
// (the response is HTTP 200 even when operations inside failed; clients
// switch on per-result error codes). Only one session lock is held at a
// time, so concurrent batches cannot deadlock.

// notFoundMsg is the canned per-op message for unknown session ids:
// canned so a miss formats no string.
const notFoundMsg = "no such session"

// batchScratch is one request's working memory, pooled so a warm server
// serves /v1/batch without steady-state allocation.
type batchScratch struct {
	body []byte
	ops  []batchOp
	res  []batchResult
	out  []byte
}

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// readAll reads r to EOF into dst's backing array (appending from
// dst[:0]-style inputs), growing it only when the body outgrows the
// recycled capacity.
func readAll(dst []byte, r io.Reader) ([]byte, error) {
	if cap(dst) == 0 {
		dst = make([]byte, 0, 4096)
	}
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// protoResult converts a scalar-path error into a per-op result.
func protoResult(err error) batchResult {
	var pe *ProtocolError
	if errors.As(err, &pe) {
		return batchResult{kind: resError, code: pe.Code, msg: pe.Msg}
	}
	return batchResult{kind: resError, code: CodeInternal, msg: err.Error()}
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	sc := batchPool.Get().(*batchScratch)
	defer batchPool.Put(sc)

	var err error
	sc.body, err = readAll(sc.body[:0], http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "body: "+err.Error())
		return
	}
	sc.ops, err = parseBatch(sc.body, sc.ops[:0])
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "body: "+err.Error())
		return
	}

	s.runBatch(sc)

	sc.out = appendBatchResults(sc.out[:0], sc.res)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(sc.out)
}

// runBatch executes sc.ops in body order, filling sc.res with one result
// per op.
func (s *Server) runBatch(sc *batchScratch) {
	st := s.store
	sc.res = sc.res[:0]
	for i := range sc.ops {
		op := &sc.ops[i]
		id := sc.body[op.idOff:op.idEnd]
		sh := &st.shards[shardIndex(st, id)]
		sh.mu.RLock()
		se := sh.m[string(id)]
		sh.mu.RUnlock()
		sc.res = append(sc.res, runOp(se, op))
	}
}

// runOp answers one op against its resolved session (nil when the id is
// unknown).
func runOp(se *Session, op *batchOp) batchResult {
	if se == nil {
		return batchResult{kind: resError, code: CodeNotFound, msg: notFoundMsg}
	}
	if op.kind == opReward {
		steps, err := se.Reward(op.seq, op.reward)
		if err != nil {
			return protoResult(err)
		}
		return batchResult{kind: resReward, n: steps}
	}
	var ctxVec []float64
	if op.hasCtx {
		ctxVec = op.ctx[:]
	}
	seq, arm, err := se.StepWithContext(ctxVec)
	if err != nil {
		return protoResult(err)
	}
	return batchResult{kind: resStep, n: seq, arm: int32(arm)}
}
