package wire

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Two kinds of committed corpus file must NOT decode. The forged-N files
// are the forged evidence-count heartbeats (forgedCountFrames). The
// retired-N files are frames of shapes this decoder no longer accepts,
// kept as the bytes an old binary or a replaying peer would send:
// retired-0 to retired-5 are wire v4 quantized frames (four deltas, a
// heartbeat and a join), retired-6 a v5 join carrying a capability
// advert, retired-7 a v4 header around raw estimator layouts, and
// retired-8 and retired-9 a v5 heartbeat and a v5 delta around the
// retired refined-grid estimator layout (flags 0x00). Both kinds are
// committed next to the seeds so fuzzing starts from them and the
// byzantine-replay scenario throws them at a live cluster.
const forgedPrefix, retiredPrefix = "forged-", "retired-"

// seedName names the corpus file of canonical frame i. The names seed-14
// and seed-15 stay unused: they held v4 frames, now retired-4 and
// retired-5, and the v5 frames past them keep their committed names.
func seedName(i int) string {
	if i >= 14 {
		i += 2
	}
	return fmt.Sprintf("seed-%d", i)
}

// writeCorpusFile adds one corpus file. A committed file is never
// overwritten: the corpus's value is its historical bytes (a regenerated
// raw seed differs from its capture by float rounding); delete a file to
// have it rewritten.
func writeCorpusFile(t *testing.T, dir, name string, b []byte) {
	t.Helper()
	path := filepath.Join(dir, name)
	if _, err := os.Stat(path); err == nil {
		return
	}
	body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", b)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestWriteSeedCorpus completes the committed fuzz seed corpus under
// testdata/fuzz/FuzzDecode from the canonical seed frames and the forged
// count frames. It only writes when WIRE_WRITE_CORPUS=1 is set; a normal
// test run instead verifies that every committed seed still decodes, and
// that every forged or retired one fails fresh, borrowed and through a
// Scratch a valid frame just used, so corpus and codec cannot drift apart
// silently.
func TestWriteSeedCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzDecode")
	if os.Getenv("WIRE_WRITE_CORPUS") == "1" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, frame := range seedFrames(t) {
			b, err := Encode(frame)
			if err != nil {
				t.Fatal(err)
			}
			writeCorpusFile(t, dir, seedName(i), b)
		}
		for i, forged := range forgedCountFrames() {
			writeCorpusFile(t, dir, fmt.Sprintf("%s%d", forgedPrefix, i), forged.frame)
		}
		return
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("seed corpus missing (complete with WIRE_WRITE_CORPUS=1): %v", err)
	}
	if len(entries) == 0 {
		t.Fatal("seed corpus directory is empty")
	}
	// Every committed seed must still decode, and together the seeds must
	// witness every (version, kind) header the canonical frames produce.
	// The wirekind analyzer audits the declared FrameKind×version pairs
	// against this same corpus; this gate keeps the corpus itself honest,
	// so neither side can rot without a red build.
	want := make(map[[2]byte]bool)
	for _, frame := range seedFrames(t) {
		b, err := Encode(frame)
		if err != nil {
			t.Fatal(err)
		}
		want[[2]byte{b[1], b[2]}] = true
	}
	got := make(map[[2]byte]bool)
	for _, e := range entries {
		name := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		b, ok := corpusBytes(string(data))
		if !ok {
			t.Errorf("%s: not a parseable go-fuzz corpus file", name)
			continue
		}
		if strings.HasPrefix(e.Name(), forgedPrefix) || strings.HasPrefix(e.Name(), retiredPrefix) {
			for what, err := range decodeEverywhere(t, b) {
				if err == nil {
					t.Errorf("%s: %s accepts a frame that must not decode", name, what)
				}
			}
			continue
		}
		if _, err := Decode(b); err != nil {
			t.Errorf("%s: committed seed no longer decodes: %v", name, err)
			continue
		}
		if len(b) >= 3 {
			got[[2]byte{b[1], b[2]}] = true
		}
	}
	for hdr := range want {
		if !got[hdr] {
			t.Errorf("no committed seed covers version %d kind %d (complete with WIRE_WRITE_CORPUS=1)", hdr[0], hdr[1])
		}
	}
}

// TestCorpusSeedsMatchDisk pins the embedded corpus (what the
// byzantine-replay scenario feeds a live cluster) to the on-disk files a
// fuzz run reads: same count, same bytes.
func TestCorpusSeedsMatchDisk(t *testing.T) {
	seeds, err := CorpusSeeds()
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzDecode")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) != len(entries) {
		t.Fatalf("embedded %d seeds, disk has %d", len(seeds), len(entries))
	}
	for _, s := range seeds {
		raw, err := os.ReadFile(filepath.Join(dir, s.Name))
		if err != nil {
			t.Fatal(err)
		}
		b, ok := corpusBytes(string(raw))
		if !ok {
			t.Fatalf("%s: unparseable on disk", s.Name)
		}
		if string(b) != string(s.Data) {
			t.Errorf("%s: embedded bytes differ from disk", s.Name)
		}
	}
}
