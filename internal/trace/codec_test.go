package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, insts []Inst) []Inst {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, "test-trace")
	if err != nil {
		t.Fatal(err)
	}
	for k := range insts {
		if err := w.Write(&insts[k]); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != int64(len(insts)) {
		t.Fatalf("Count = %d, want %d", w.Count(), len(insts))
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.TraceName() != "test-trace" {
		t.Fatalf("TraceName = %q", r.TraceName())
	}
	out, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestReadAllRefusesCutRecord cuts a trace at every byte past its
// header: a cut between records reads as the shorter trace, a cut
// inside a record is an error.
func TestReadAllRefusesCutRecord(t *testing.T) {
	app, err := ByName("mcf06")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, "cut")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	header := buf.Len()
	ends := map[int]int{header: 0} // record boundary -> records before it
	for k, inst := range CollectN(app.New(1), 40) {
		if err := w.Write(&inst); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		ends[buf.Len()] = k + 1
	}
	full := buf.Bytes()
	for cut := header; cut <= len(full); cut++ {
		r, err := NewReader(bytes.NewReader(full[:cut]))
		if err != nil {
			t.Fatal(err)
		}
		out, err := r.ReadAll()
		if n, boundary := ends[cut]; boundary {
			if err != nil || len(out) != n {
				t.Errorf("cut at %d (after record %d): %d records, err %v", cut, n, len(out), err)
			}
		} else if err == nil {
			t.Errorf("cut at %d inside a record: read %d records without error", cut, len(out))
		}
	}
}

func TestCodecRoundTripCatalogApps(t *testing.T) {
	for _, name := range []string{"lbm17", "mcf06", "cassandra"} {
		app, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		in := CollectN(app.New(5), 5000)
		out := roundTrip(t, in)
		if len(out) != len(in) {
			t.Fatalf("%s: got %d insts, want %d", name, len(out), len(in))
		}
		for k := range in {
			if in[k] != out[k] {
				t.Fatalf("%s: inst %d mismatch: %+v vs %+v", name, k, in[k], out[k])
			}
		}
	}
}

func TestCodecEmptyTrace(t *testing.T) {
	out := roundTrip(t, nil)
	if len(out) != 0 {
		t.Fatalf("empty trace decoded to %d insts", len(out))
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("nope"))); err == nil {
		t.Error("accepted bad magic")
	}
	if _, err := NewReader(bytes.NewReader(nil)); err == nil {
		t.Error("accepted empty input")
	}
	// Valid magic, wrong version.
	bad := append(append([]byte{}, traceMagic[:]...), 99)
	if _, err := NewReader(bytes.NewReader(bad)); err == nil {
		t.Error("accepted bad version")
	}
}

func TestCodecEOFSemantics(t *testing.T) {
	out := roundTrip(t, []Inst{{PC: 1, Kind: KindALU}})
	if len(out) != 1 {
		t.Fatal("lost instruction")
	}
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, "x")
	i := Inst{PC: 4, Kind: KindLoad, Addr: 64}
	_ = w.Write(&i)
	_ = w.Flush()
	r, _ := NewReader(&buf)
	var got Inst
	if err := r.Read(&got); err != nil {
		t.Fatal(err)
	}
	if err := r.Read(&got); !errors.Is(err, io.EOF) {
		t.Fatalf("expected io.EOF, got %v", err)
	}
}

func TestLoopReplaysForever(t *testing.T) {
	insts := []Inst{
		{PC: 1, Kind: KindALU},
		{PC: 2, Kind: KindLoad, Addr: 64},
		{PC: 3, Kind: KindBranch},
	}
	l := NewLoop("looped", insts)
	if l.Name() != "looped" {
		t.Errorf("Name = %q", l.Name())
	}
	for k := 0; k < 10; k++ {
		var i Inst
		l.Next(&i)
		if i != insts[k%3] {
			t.Fatalf("loop iteration %d = %+v", k, i)
		}
	}
}

func TestLoopPanicsOnEmpty(t *testing.T) {
	assertPanics(t, func() { NewLoop("x", nil) })
}

// Property: arbitrary instruction sequences survive the codec bit-exactly.
func TestQuickCodecRoundTrip(t *testing.T) {
	f := func(pcs []uint32, kinds []uint8) bool {
		n := len(pcs)
		if len(kinds) < n {
			n = len(kinds)
		}
		in := make([]Inst, n)
		for k := 0; k < n; k++ {
			kind := Kind(kinds[k] % uint8(numKinds))
			in[k] = Inst{PC: uint64(pcs[k]) + 1, Kind: kind}
			if kind == KindLoad || kind == KindStore {
				in[k].Addr = uint64(pcs[k]) * 64
			}
			if kind == KindBranch {
				in[k].Mispredict = pcs[k]%2 == 0
			}
			if kind == KindLoad {
				in[k].DependsOnPrev = pcs[k]%3 == 0
			}
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf, "q")
		if err != nil {
			return false
		}
		for k := range in {
			if err := w.Write(&in[k]); err != nil {
				return false
			}
		}
		if err := w.Flush(); err != nil {
			return false
		}
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		out, err := r.ReadAll()
		if err != nil || len(out) != len(in) {
			return false
		}
		for k := range in {
			if in[k] != out[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkCodecWrite(b *testing.B) {
	app, _ := ByName("lbm17")
	insts := CollectN(app.New(1), 10000)
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		var buf bytes.Buffer
		w, _ := NewWriter(&buf, "bench")
		for j := range insts {
			_ = w.Write(&insts[j])
		}
		_ = w.Flush()
	}
}
