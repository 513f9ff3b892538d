package smtwork

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden uop-stream hashes in testdata")

// streamGoldenPath holds the recorded uop-stream hashes.
var streamGoldenPath = filepath.Join("testdata", "uopstreams.json")

const (
	// streamUops is how many uops of each stream are hashed.
	streamUops = 1_000_000
	// streamUopBytes is the size of one encoded uop.
	streamUopBytes = 26
)

// streamSeeds are the generator seeds every profile is hashed at.
var streamSeeds = []uint64{1, 21}

// streamHash returns the SHA-256 of the first n uops p generates from
// seed, each encoded as kind, Lat, DrainLat, DepDist, Mispredict.
func streamHash(p Profile, seed uint64, n int) string {
	g := NewGen(p, seed)
	h := sha256.New()
	buf := make([]byte, 0, 4096*streamUopBytes)
	var us [64]Uop
	for i := 0; i < n; i++ {
		if i%len(us) == 0 {
			g.Fill(us[:min(len(us), n-i)])
		}
		u := &us[i%len(us)]
		mis := byte(0)
		if u.Mispredict {
			mis = 1
		}
		buf = append(buf, byte(u.Kind))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(u.Lat))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(u.DrainLat))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(u.DepDist))
		buf = append(buf, mis)
		if len(buf) == cap(buf) {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

// TestUopStreamGolden pins the first million uops of every profile at
// every seed in streamSeeds. With -update it re-records the file instead;
// only do that for a change meant to alter the generated workloads.
func TestUopStreamGolden(t *testing.T) {
	var want map[string]string
	if !*update {
		b, err := os.ReadFile(streamGoldenPath)
		if err != nil {
			t.Fatalf("golden uop streams: %v (record with go test ./internal/smtwork -run TestUopStreamGolden -update)", err)
		}
		if err := json.Unmarshal(b, &want); err != nil {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	got := map[string]string{}
	t.Run("streams", func(t *testing.T) {
		for _, p := range Profiles() {
			for _, seed := range streamSeeds {
				p, seed := p, seed
				name := fmt.Sprintf("%s/%d", p.Name, seed)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					h := streamHash(p, seed, streamUops)
					mu.Lock()
					got[name] = h
					mu.Unlock()
					if !*update && h != want[name] {
						t.Errorf("%s: stream hash %s, want %s", name, h, want[name])
					}
				})
			}
		}
	})
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(streamGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(streamGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("recorded %d uop streams to %s", len(got), streamGoldenPath)
		return
	}
	if len(want) != len(got) {
		t.Errorf("recorded %d streams, have %d", len(want), len(got))
	}
}
