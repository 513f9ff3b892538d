package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"microbandit/internal/trace"
)

// mainArg, as the test binary's first argument, makes it run the
// command's main with the remaining arguments instead of the tests.
const mainArg = "mab-trace-main"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == mainArg {
		os.Args = append([]string{"mab-trace"}, os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// TestRecordFanOutGolden records two apps through the real command at
// -j 1 and -j 2: the report lines and both .mbt files must hash to the
// recorded values.
func TestRecordFanOutGolden(t *testing.T) {
	want := map[string]string{
		"stdout":    "dd840fbfaa27567d656d231204a328a43f53f60cfa085726e10b9fea4a88eb7b",
		"lbm17.mbt": "e4c2c482830662852e62fabbc7b91a4831f363b6a0eabcf40b6fd714dba96828",
		"mcf06.mbt": "47a816609e186adaa01f2eefa4f4764d208dee1a17893eccdad1ee26e5c3b8cf",
	}
	for _, j := range []string{"1", "2"} {
		t.Run("j"+j, func(t *testing.T) {
			dir := t.TempDir()
			cmd := exec.Command(os.Args[0], mainArg, "record", "-app", "lbm17,mcf06", "-insts", "50000", "-j", j)
			cmd.Dir = dir
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("record: %v\n%s", err, out)
			}
			got := map[string]string{"stdout": sha(out)}
			for _, name := range []string{"lbm17.mbt", "mcf06.mbt"} {
				b, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil {
					t.Fatal(err)
				}
				got[name] = sha(b)
			}
			for k, w := range want {
				if got[k] != w {
					t.Errorf("%s sha256 = %s, want %s", k, got[k], w)
				}
			}
		})
	}
}

// TestInfoRefusesCutTrace: info counts a whole trace and exits 1 on one
// that ends inside a record, instead of reporting the shorter count.
func TestInfoRefusesCutTrace(t *testing.T) {
	app, err := trace.ByName("mcf06")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "m.mbt")
	if _, err := recordOne(context.Background(), app, path, 1000, 1); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(os.Args[0], mainArg, "info", "-in", path).CombinedOutput()
	if err != nil || !strings.HasPrefix(string(out), "trace mcf06: 1000 instructions\n") {
		t.Fatalf("whole trace: %v\n%s", err, out)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(dir, "cut.mbt")
	if err := os.WriteFile(cut, append(b[:len(b)/2:len(b)/2], 0xff, 0xff), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err = exec.Command(os.Args[0], mainArg, "info", "-in", cut).CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 || !strings.Contains(string(out), "cut.mbt") {
		t.Fatalf("cut trace: exit %v\n%s", err, out)
	}
}

// TestRecordRoundTripChunkBoundary records an instruction budget that
// straddles a chunk boundary (one full slab plus a short tail) and
// checks the file replays exactly the scalar generator stream — the
// chunked record path must not change the .mbt format or the bytes in
// it, including for budgets that are not a multiple of ChunkLen.
func TestRecordRoundTripChunkBoundary(t *testing.T) {
	const insts = trace.ChunkLen + 37
	app, err := trace.ByName("lbm17")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "lbm17.mbt")
	if _, err := recordOne(context.Background(), app, path, insts, 1); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	if r.TraceName() != app.Name {
		t.Fatalf("trace name = %q, want %q", r.TraceName(), app.Name)
	}

	// The recorded stream must match a fresh scalar generator bit for
	// bit, across the ChunkLen boundary and through the short tail.
	g := app.New(1)
	var got, want trace.Inst
	for i := 0; i < insts; i++ {
		if err := r.Read(&got); err != nil {
			t.Fatalf("inst %d: read: %v", i, err)
		}
		g.Next(&want)
		if got != want {
			t.Fatalf("inst %d: recorded %+v, scalar generator %+v", i, got, want)
		}
	}
	if err := r.Read(&got); err == nil {
		t.Fatalf("trace longer than the %d-instruction budget", insts)
	}
}

// TestReplayLoopChunked pins the §6.2 loop-replay path: a Loop over the
// recorded instructions serves chunks identical to its scalar stream
// even when reads wrap past the end of the trace mid-chunk.
func TestReplayLoopChunked(t *testing.T) {
	const insts = trace.ChunkLen/2 + 11 // wraps several times per chunk
	app, err := trace.ByName("mcf06")
	if err != nil {
		t.Fatal(err)
	}
	g := app.New(7)
	recorded := make([]trace.Inst, insts)
	for i := range recorded {
		g.Next(&recorded[i])
	}

	scalar := trace.NewLoop(app.Name, recorded)
	chunked := trace.SourceOf(trace.NewLoop(app.Name, recorded))
	var c trace.Chunk
	var want trace.Inst
	pos := 0
	for read := 0; read < 3*trace.ChunkLen; read += c.Len() {
		c.Reset(trace.ChunkLen)
		chunked.NextChunk(&c)
		for i := 0; i < c.Len(); i++ {
			var got trace.Inst
			c.Get(i, &got)
			scalar.Next(&want)
			if got != want {
				t.Fatalf("inst %d (loop pos %d): chunked %+v, scalar %+v", read+i, pos, got, want)
			}
			pos = (pos + 1) % insts
		}
	}
}
