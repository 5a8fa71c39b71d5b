package wire

import (
	"embed"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// The committed FuzzDecode seed corpus is embedded so adversarial
// harnesses (the byzantine-replay scenario) can replay every seed at a
// live cluster without knowing where the package sources live on disk.
//
//go:embed testdata/fuzz/FuzzDecode/*
var corpusFS embed.FS

// CorpusSeed is one committed fuzz seed: its file name and the raw frame
// bytes it encodes.
type CorpusSeed struct {
	Name string
	Data []byte
}

// CorpusSeeds returns every committed FuzzDecode corpus seed, sorted by
// name. The corpus is the codec's catalog of hostile inputs: one frame of
// every shape the encoder produces, exactly as a malicious peer could
// replay them, plus frames that must fail to decode — shapes the decoder
// retired (the retired-N files) and forged frames no encoder ever emitted
// (the forged-N files).
func CorpusSeeds() ([]CorpusSeed, error) {
	const dir = "testdata/fuzz/FuzzDecode"
	entries, err := corpusFS.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wire: embedded corpus: %w", err)
	}
	seeds := make([]CorpusSeed, 0, len(entries))
	for _, e := range entries {
		raw, err := corpusFS.ReadFile(dir + "/" + e.Name())
		if err != nil {
			return nil, fmt.Errorf("wire: embedded corpus %s: %w", e.Name(), err)
		}
		b, ok := corpusBytes(string(raw))
		if !ok {
			return nil, fmt.Errorf("wire: corpus seed %s is not a parseable go-fuzz file", e.Name())
		}
		seeds = append(seeds, CorpusSeed{Name: e.Name(), Data: b})
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i].Name < seeds[j].Name })
	return seeds, nil
}

// corpusBytes extracts the []byte value from a go-fuzz corpus file.
func corpusBytes(content string) ([]byte, bool) {
	lines := strings.Split(content, "\n")
	if len(lines) < 2 || strings.TrimSpace(lines[0]) != "go test fuzz v1" {
		return nil, false
	}
	for _, line := range lines[1:] {
		rest, ok := strings.CutPrefix(strings.TrimSpace(line), "[]byte(")
		if !ok {
			continue
		}
		lit, ok := strings.CutSuffix(rest, ")")
		if !ok {
			continue
		}
		s, err := strconv.Unquote(lit)
		if err != nil {
			return nil, false
		}
		return []byte(s), true
	}
	return nil, false
}
