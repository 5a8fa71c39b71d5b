package wire

import (
	"reflect"
	"slices"
	"strings"
	"testing"
)

// TestEveryFrameKindHasSeedsAndRoundTrips walks every frame kind and
// every wire version it may ride. Each pair needs a committed FuzzDecode
// seed with its header, so fuzzing starts from every shape the decoder
// accepts, and the seed must survive Decode, validate and Encode and
// decode again to the same frame (not always the same bytes: a declared
// cadence of 0 decodes as 1). The canonical seed frames must encode only declared
// pairs, so the encoder cannot emit a shape the decoder refuses.
func TestEveryFrameKindHasSeedsAndRoundTrips(t *testing.T) {
	seeds, err := CorpusSeeds()
	if err != nil {
		t.Fatal(err)
	}
	byHeader := make(map[[2]byte][][]byte)
	for _, s := range seeds {
		if strings.HasPrefix(s.Name, forgedPrefix) || strings.HasPrefix(s.Name, retiredPrefix) || len(s.Data) < headerSize {
			continue
		}
		hdr := [2]byte{s.Data[1], s.Data[2]}
		byHeader[hdr] = append(byHeader[hdr], s.Data)
	}
	for _, kind := range FrameKinds() {
		if len(kindVersions[kind]) == 0 {
			t.Errorf("frame kind %d declares no wire version", kind)
		}
		for _, ver := range kindVersions[kind] {
			witnesses := byHeader[[2]byte{ver, byte(kind)}]
			if len(witnesses) == 0 {
				t.Errorf("no committed FuzzDecode seed for frame kind %d at version %d (complete with WIRE_WRITE_CORPUS=1)", kind, ver)
			}
			for _, b := range witnesses {
				f, err := Decode(b)
				if err != nil {
					t.Errorf("kind %d v%d: seed does not decode: %v", kind, ver, err)
					continue
				}
				if f.Kind != kind {
					t.Errorf("kind %d v%d: seed decodes as kind %d", kind, ver, f.Kind)
				}
				if err := validate(f); err != nil {
					t.Errorf("kind %d v%d: decoded seed fails validate: %v", kind, ver, err)
				}
				again, err := Encode(f)
				if err != nil {
					t.Errorf("kind %d v%d: decoded seed does not re-encode: %v", kind, ver, err)
					continue
				}
				if g, err := Decode(again); err != nil || !reflect.DeepEqual(g, f) {
					t.Errorf("kind %d v%d: seed does not round-trip (err %v)", kind, ver, err)
				}
			}
		}
	}
	for _, f := range seedFrames(t) {
		b, err := Encode(f)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Contains(kindVersions[f.Kind], b[1]) {
			t.Errorf("the encoder emits frame kind %d at version %d, which the decoder refuses", f.Kind, b[1])
		}
	}
}
