package wire

import (
	"reflect"
	"strings"
	"testing"
)

// TestEveryFrameKindHasSeedsAndRoundTrips walks every frame kind. Each
// needs a committed FuzzDecode seed with its header at the one wire
// version, so fuzzing starts from every shape the decoder accepts, and
// the seed must survive Decode, validate and Encode and decode again to
// the same frame. The canonical seed frames must encode at that version
// only, so the encoder cannot emit a header the decoder refuses.
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
		witnesses := byHeader[[2]byte{version, byte(kind)}]
		if len(witnesses) == 0 {
			t.Errorf("no committed FuzzDecode seed for frame kind %d at version %d (complete with WIRE_WRITE_CORPUS=1)", kind, version)
		}
		for _, b := range witnesses {
			f, err := Decode(b)
			if err != nil {
				t.Errorf("kind %d: seed does not decode: %v", kind, err)
				continue
			}
			if f.Kind != kind {
				t.Errorf("kind %d: seed decodes as kind %d", kind, f.Kind)
			}
			if err := validate(f); err != nil {
				t.Errorf("kind %d: decoded seed fails validate: %v", kind, err)
			}
			again, err := Encode(f)
			if err != nil {
				t.Errorf("kind %d: decoded seed does not re-encode: %v", kind, err)
				continue
			}
			if g, err := Decode(again); err != nil || !reflect.DeepEqual(g, f) {
				t.Errorf("kind %d: seed does not round-trip (err %v)", kind, err)
			}
		}
	}
	for _, f := range seedFrames(t) {
		b, err := Encode(f)
		if err != nil {
			t.Fatal(err)
		}
		if b[1] != version {
			t.Errorf("the encoder emits frame kind %d at version %d, which the decoder refuses", f.Kind, b[1])
		}
	}
}
