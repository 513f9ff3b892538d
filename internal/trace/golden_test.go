package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden chunk hashes in testdata")

// goldenChunksPath holds the recorded per-app chunk-stream hashes.
var goldenChunksPath = filepath.Join("testdata", "chunks.json")

// goldenChunks is how many ChunkLen chunks of each app's stream are
// hashed.
const goldenChunks = 64

// chunkStreamSHA256 hashes the first n full chunks of src: every PC,
// address, kind, and flag, plus the memory-op index of each chunk.
func chunkStreamSHA256(src ChunkSource, n int) string {
	h := sha256.New()
	var c Chunk
	var buf []byte
	for k := 0; k < n; k++ {
		c.Reset(ChunkLen)
		src.NextChunk(&c)
		buf = buf[:0]
		for i := 0; i < c.Len(); i++ {
			buf = binary.LittleEndian.AppendUint64(buf, c.PC[i])
			buf = binary.LittleEndian.AppendUint64(buf, c.Addr[i])
			buf = append(buf, byte(c.Kind[i]), c.Flags[i])
		}
		for _, m := range c.Mem {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(m))
		}
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenChunkStreams pins every catalog app's chunked stream (seed 1)
// against the recorded hashes, so a change to the fill kernels cannot
// shift any simulated instruction. With -update it re-records the file.
func TestGoldenChunkStreams(t *testing.T) {
	apps := Catalog()
	got := make(map[string]string, len(apps))
	for _, app := range apps {
		got[app.Name] = chunkStreamSHA256(SourceOf(app.New(1)), goldenChunks)
	}
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenChunksPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenChunksPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(goldenChunksPath)
	if err != nil {
		t.Fatalf("%v (record with go test ./internal/trace -run TestGoldenChunkStreams -update)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("recorded %d apps, catalog has %d", len(want), len(got))
	}
	for name, h := range got {
		if want[name] != h {
			t.Errorf("%s: chunk stream hash %s, recorded %s", name, h, want[name])
		}
	}
}
