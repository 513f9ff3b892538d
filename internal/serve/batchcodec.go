package serve

import (
	"fmt"
	"math"
	"strconv"
)

// This file is the /v1/batch wire codec. The request grammar is a strict
// JSON subset:
//
//	{"ops":[
//	  {"id":"s-0000002a","step":true},
//	  {"id":"s-0000002a","seq":17,"reward":0.625},
//	  ...
//	]}
//
// and the response mirrors it:
//
//	{"results":[
//	  {"seq":17,"arm":3},
//	  {"steps":18},
//	  {"error":{"code":"seq_mismatch","message":"..."}},
//	  ...
//	]}
//
// The codec is hand-rolled rather than encoding/json because the batch
// endpoint exists to amortize per-decision overhead: a 256-op body
// decoded through reflection costs more than the 256 bandit updates it
// carries. Parsing works directly on the request body — session ids are
// recorded as byte offsets, short numbers are converted exactly in the
// scan and the rest go through strconv on a stack-backed string — so a
// steady-state decode performs zero heap allocations
// (pinned by TestBatchDecodeAllocs). Strictness is part of the contract:
// escape sequences in ids, leading zeros, unknown keys, and trailing
// bytes are rejected, so every accepted body means exactly what
// encoding/json would have decoded (FuzzBatchDecode cross-checks).

// MaxBatchOps bounds the operations one /v1/batch request may carry.
const MaxBatchOps = 4096

// Batch operation kinds.
const (
	opStep uint8 = iota + 1
	opReward
)

// batchOp is one parsed operation. The session id is kept as offsets
// into the request body, not a string, so parsing allocates nothing.
// hasCtx marks a step op carrying a context vector.
type batchOp struct {
	idOff, idEnd int32
	kind         uint8
	seq          uint64
	reward       float64
	hasCtx       bool
	ctx          [3]float64
}

// Batch result kinds.
const (
	resStep uint8 = iota + 1
	resReward
	resError
)

// batchResult is one operation's outcome, in wire order. n carries a
// step's seq or a reward's steps, depending on kind.
type batchResult struct {
	kind uint8
	arm  int32
	n    uint64
	code string
	msg  string
}

// batchParser is a cursor over one request body.
type batchParser struct {
	b   []byte
	pos int
}

func (p *batchParser) errf(format string, args ...any) error {
	return fmt.Errorf("offset %d: %s", p.pos, fmt.Sprintf(format, args...))
}

func (p *batchParser) ws() {
	for p.pos < len(p.b) {
		switch p.b[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

func (p *batchParser) eat(c byte) bool {
	if p.pos < len(p.b) && p.b[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

// str consumes a JSON string and returns the offsets of its content.
// Escape sequences and non-ASCII bytes are rejected: session ids are
// printable ASCII ("s-%08x"), and refusing everything else keeps id
// bytes usable in place, byte-identical to what encoding/json would
// have decoded.
func (p *batchParser) str() (start, end int, err error) {
	if !p.eat('"') {
		return 0, 0, p.errf("expected string")
	}
	start = p.pos
	for p.pos < len(p.b) {
		c := p.b[p.pos]
		switch {
		case c == '"':
			end = p.pos
			p.pos++
			return start, end, nil
		case c == '\\':
			return 0, 0, p.errf("escape sequences are not supported in batch strings")
		case c < 0x20 || c >= 0x7f:
			return 0, 0, p.errf("batch strings must be printable ASCII")
		}
		p.pos++
	}
	return 0, 0, p.errf("unterminated string")
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// uintToken consumes a JSON unsigned integer (sequence numbers),
// converting it in the scan and refusing a value past MaxUint64.
func (p *batchParser) uintToken() (uint64, error) {
	start := p.pos
	var n uint64
	for p.pos < len(p.b) && isDigit(p.b[p.pos]) {
		d := uint64(p.b[p.pos] - '0')
		if n > (math.MaxUint64-d)/10 {
			return 0, p.errf("integer out of range")
		}
		n = n*10 + d
		p.pos++
	}
	tok := p.b[start:p.pos]
	if len(tok) == 0 {
		return 0, p.errf("expected unsigned integer")
	}
	if len(tok) > 1 && tok[0] == '0' {
		return 0, p.errf("malformed integer (leading zero)")
	}
	return n, nil
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// number consumes a JSON number. The grammar is checked by hand because
// strconv.ParseFloat is laxer than JSON (it takes "+1", ".5", "0x1p4",
// "Inf").
//
// The scan also accumulates the digits as an integer mantissa. When the
// number has no exponent, the mantissa is below 2^53 and there are at
// most 22 fraction digits, both mant and 10^frac are exact doubles, so
// the one IEEE division mant / 10^frac is the correctly rounded value:
// the bits ParseFloat returns. Every other number goes to ParseFloat.
func (p *batchParser) number() (float64, error) {
	start := p.pos
	neg := p.eat('-')
	intStart := p.pos
	var mant uint64
	sig := 0 // significant digits in mant; past 19 it may have wrapped
	for p.pos < len(p.b) && isDigit(p.b[p.pos]) {
		if mant != 0 || p.b[p.pos] != '0' {
			mant = mant*10 + uint64(p.b[p.pos]-'0')
			sig++
		}
		p.pos++
	}
	intLen := p.pos - intStart
	if intLen == 0 {
		return 0, p.errf("malformed number")
	}
	if intLen > 1 && p.b[intStart] == '0' {
		return 0, p.errf("malformed number (leading zero)")
	}
	frac := 0
	if p.pos < len(p.b) && p.b[p.pos] == '.' {
		p.pos++
		fracStart := p.pos
		for p.pos < len(p.b) && isDigit(p.b[p.pos]) {
			if mant != 0 || p.b[p.pos] != '0' {
				mant = mant*10 + uint64(p.b[p.pos]-'0')
				sig++
			}
			p.pos++
		}
		frac = p.pos - fracStart
		if frac == 0 {
			return 0, p.errf("malformed number (empty fraction)")
		}
	}
	if p.pos < len(p.b) && (p.b[p.pos] == 'e' || p.b[p.pos] == 'E') {
		p.pos++
		if p.pos < len(p.b) && (p.b[p.pos] == '+' || p.b[p.pos] == '-') {
			p.pos++
		}
		expStart := p.pos
		for p.pos < len(p.b) && isDigit(p.b[p.pos]) {
			p.pos++
		}
		if p.pos == expStart {
			return 0, p.errf("malformed number (empty exponent)")
		}
	} else if sig <= 19 && mant < 1<<53 && frac < len(pow10) {
		f := float64(mant) / pow10[frac]
		if neg {
			f = -f
		}
		return f, nil
	}
	f, err := strconv.ParseFloat(string(p.b[start:p.pos]), 64)
	if err != nil {
		return 0, p.errf("bad number: %v", err)
	}
	return f, nil
}

// boolean consumes a JSON true/false literal.
func (p *batchParser) boolean() (bool, error) {
	b := p.b[p.pos:]
	switch {
	case len(b) >= 4 && string(b[:4]) == "true":
		p.pos += 4
		return true, nil
	case len(b) >= 5 && string(b[:5]) == "false":
		p.pos += 5
		return false, nil
	}
	return false, p.errf("expected true or false")
}

// The two canonical op spellings the batch clients emit, recognized by
// opFast without the per-key dispatch loop. opFast compares each one
// written out against the constant, which compiles to a few word loads;
// a helper taking the key as a parameter would call memequal instead.
const (
	opIDPrefix   = `{"id":`
	opStepSuffix = `,"step":true}`
	opSeqKey     = `,"seq":`
	opRewardKey  = `,"reward":`
)

// opFast decodes the two canonical op shapes — {"id":"…","step":true}
// and {"id":"…","seq":N,"reward":R}, compact, keys in this order — with
// a handful of prefix compares. Values go through the same str /
// uintToken / number routines as the general parser, so an op accepted
// here means exactly what the general parser would have decoded. Returns
// false with the cursor rewound for anything else; the general parser
// then accepts or rejects it.
func (p *batchParser) opFast(out *batchOp) bool {
	start := p.pos
	b := p.b
	if r := b[p.pos:]; len(r) < len(opIDPrefix) || string(r[:len(opIDPrefix)]) != opIDPrefix {
		return false
	}
	p.pos += len(opIDPrefix)
	vs, ve, err := p.str()
	if err != nil || vs == ve {
		p.pos = start
		return false
	}
	out.idOff, out.idEnd = int32(vs), int32(ve)
	if r := b[p.pos:]; len(r) >= len(opStepSuffix) && string(r[:len(opStepSuffix)]) == opStepSuffix {
		p.pos += len(opStepSuffix)
		out.kind = opStep
		return true
	}
	if r := b[p.pos:]; len(r) < len(opSeqKey) || string(r[:len(opSeqKey)]) != opSeqKey {
		p.pos = start
		return false
	}
	p.pos += len(opSeqKey)
	n, err := p.uintToken()
	if r := b[p.pos:]; err != nil || len(r) < len(opRewardKey) || string(r[:len(opRewardKey)]) != opRewardKey {
		p.pos = start
		return false
	}
	p.pos += len(opRewardKey)
	f, err := p.number()
	if err != nil || p.pos >= len(b) || b[p.pos] != '}' {
		p.pos = start
		return false
	}
	p.pos++
	out.seq, out.reward, out.kind = n, f, opReward
	return true
}

// op consumes one operation object into out. Keys may come in any order;
// duplicate keys follow JSON's last-one-wins.
func (p *batchParser) op(out *batchOp) error {
	if !p.eat('{') {
		return p.errf("expected op object")
	}
	var sawID, stepVal, sawSeq, sawReward bool
	p.ws()
	for {
		ks, ke, err := p.str()
		if err != nil {
			return err
		}
		p.ws()
		if !p.eat(':') {
			return p.errf("expected ':' after key")
		}
		p.ws()
		// Dispatch on key length + first byte: the four keys differ
		// there, so the hot loop never runs a full string compare.
		key := p.b[ks:ke]
		switch {
		case len(key) == 2 && key[0] == 'i' && key[1] == 'd':
			vs, ve, err := p.str()
			if err != nil {
				return err
			}
			if vs == ve {
				return p.errf("empty session id")
			}
			out.idOff, out.idEnd = int32(vs), int32(ve)
			sawID = true
		case len(key) == 4 && key[0] == 's' && string(key) == "step":
			v, err := p.boolean()
			if err != nil {
				return err
			}
			stepVal = v
		case len(key) == 3 && key[0] == 's' && key[1] == 'e' && key[2] == 'q':
			n, err := p.uintToken()
			if err != nil {
				return err
			}
			out.seq = n
			sawSeq = true
		case len(key) == 6 && key[0] == 'r' && string(key) == "reward":
			f, err := p.number()
			if err != nil {
				return err
			}
			out.reward = f
			sawReward = true
		case len(key) == 3 && key[0] == 'c' && key[1] == 't' && key[2] == 'x':
			if err := p.ctxVector(out); err != nil {
				return err
			}
		default:
			return p.errf("unknown op key %q", key)
		}
		p.ws()
		if p.eat(',') {
			p.ws()
			continue
		}
		if p.eat('}') {
			break
		}
		return p.errf("expected ',' or '}' in op")
	}
	switch {
	case !sawID:
		return p.errf(`op is missing "id"`)
	case sawSeq != sawReward:
		return p.errf(`"seq" and "reward" must be given together`)
	case sawReward && stepVal:
		return p.errf("op cannot be both a step and a reward")
	case sawReward && out.hasCtx:
		return p.errf(`"ctx" applies only to step ops`)
	case sawReward:
		out.kind = opReward
	case stepVal:
		out.kind = opStep
	default:
		return p.errf(`op needs "step":true or "seq"+"reward"`)
	}
	return nil
}

// ctxVector consumes a context array of exactly 3 numbers
// ([phase, mpki, bw_util]) into out.
func (p *batchParser) ctxVector(out *batchOp) error {
	if !p.eat('[') {
		return p.errf(`"ctx" expects an array of 3 numbers`)
	}
	for i := 0; i < 3; i++ {
		p.ws()
		f, err := p.number()
		if err != nil {
			return err
		}
		out.ctx[i] = f
		p.ws()
		if i < 2 && !p.eat(',') {
			return p.errf(`"ctx" expects an array of 3 numbers`)
		}
	}
	if !p.eat(']') {
		return p.errf(`"ctx" expects an array of 3 numbers`)
	}
	out.hasCtx = true
	return nil
}

// parseBatch decodes a /v1/batch body into ops (appending; pass a
// recycled slice with len 0). Offsets in the returned ops index body.
func parseBatch(body []byte, ops []batchOp) ([]batchOp, error) {
	p := batchParser{b: body}
	p.ws()
	if !p.eat('{') {
		return ops, p.errf("expected '{'")
	}
	p.ws()
	ks, ke, err := p.str()
	if err != nil {
		return ops, err
	}
	if string(p.b[ks:ke]) != "ops" {
		return ops, p.errf(`expected "ops" key, got %q`, p.b[ks:ke])
	}
	p.ws()
	if !p.eat(':') {
		return ops, p.errf("expected ':'")
	}
	p.ws()
	if !p.eat('[') {
		return ops, p.errf("expected '['")
	}
	p.ws()
	if !p.eat(']') {
		for {
			if len(ops) >= MaxBatchOps {
				return ops, fmt.Errorf("more than %d ops in one batch", MaxBatchOps)
			}
			var op batchOp
			if !p.opFast(&op) {
				if err := p.op(&op); err != nil {
					return ops, err
				}
			}
			ops = append(ops, op)
			p.ws()
			if p.eat(',') {
				p.ws()
				continue
			}
			if p.eat(']') {
				break
			}
			return ops, p.errf("expected ',' or ']' after op")
		}
	}
	p.ws()
	if !p.eat('}') {
		return ops, p.errf("expected '}'")
	}
	p.ws()
	if p.pos != len(p.b) {
		return ops, p.errf("trailing data after batch")
	}
	return ops, nil
}

// appendJSONString appends s as a JSON string literal. Error messages
// can embed client-supplied bytes, so quoting is not optional.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"':
			dst = append(dst, '\\', '"')
		case c == '\\':
			dst = append(dst, '\\', '\\')
		case c >= 0x20:
			dst = append(dst, c)
		case c == '\n':
			dst = append(dst, '\\', 'n')
		case c == '\t':
			dst = append(dst, '\\', 't')
		case c == '\r':
			dst = append(dst, '\\', 'r')
		default:
			dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		}
	}
	return append(dst, '"')
}

// appendBatchResults encodes the response body into dst (appending).
func appendBatchResults(dst []byte, results []batchResult) []byte {
	dst = append(dst, `{"results":[`...)
	for i := range results {
		if i > 0 {
			dst = append(dst, ',')
		}
		r := &results[i]
		switch r.kind {
		case resStep:
			dst = append(dst, `{"seq":`...)
			dst = strconv.AppendUint(dst, r.n, 10)
			dst = append(dst, `,"arm":`...)
			dst = strconv.AppendInt(dst, int64(r.arm), 10)
			dst = append(dst, '}')
		case resReward:
			dst = append(dst, `{"steps":`...)
			dst = strconv.AppendUint(dst, r.n, 10)
			dst = append(dst, '}')
		default:
			dst = append(dst, `{"error":{"code":"`...)
			dst = append(dst, r.code...) // codes are fixed tokens, never escaped
			dst = append(dst, `","message":`...)
			dst = appendJSONString(dst, r.msg)
			dst = append(dst, `}}`...)
		}
	}
	return append(dst, ']', '}', '\n')
}
