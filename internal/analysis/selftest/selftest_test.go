// Package selftest is the lint suite's negative control: a fixture
// command seeded with one violation per analyzer is pushed through the
// same analysis.Run path cmd/adaptivelint uses, and the test fails if
// any analyzer stays silent. A passing adaptivelint run over the real
// tree is only meaningful while this test proves the analyzers still
// fire.
package selftest

import (
	"strings"
	"testing"

	"adaptivecast/internal/analysis"
	"adaptivecast/internal/analysis/analysistest"
	"adaptivecast/internal/analysis/internalboundary"
	"adaptivecast/internal/analysis/registry"
)

func TestEachAnalyzerFires(t *testing.T) {
	pkg, err := analysistest.Load("testdata", "example.com/mod/cmd/broken", "example.com/mod")
	if err != nil {
		t.Fatalf("load seeded fixture: %v", err)
	}
	// The registry keeps this list in lockstep with cmd/adaptivelint:
	// a newly registered analyzer fails here until the fixture seeds a
	// violation for it. Only internalboundary is swapped, for a facade
	// list matching the fixture module's layout.
	analyzers := registry.All()
	for i, a := range analyzers {
		if a.Name == "internalboundary" {
			analyzers[i] = internalboundary.New("")
		}
	}
	diags, err := analysis.Run(pkg, analyzers)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	fired := make(map[string]int)
	for _, d := range diags {
		fired[d.Analyzer]++
	}
	for _, a := range analyzers {
		if fired[a.Name] == 0 {
			t.Errorf("%s reported nothing over its seeded violation; the lint gate would miss a real regression", a.Name)
		}
	}
	// buflife must see through the generic pool: its directive names an
	// imported instantiation, pool.Pool[tickWorkspace].
	tickLeak := false
	for _, d := range diags {
		tickLeak = tickLeak || d.Analyzer == "buflife" && strings.Contains(d.Message, "pooled buffer ws ")
	}
	if !tickLeak {
		t.Error("buflife missed the tick workspace taken from the generic pool and never put back")
	}
	if t.Failed() {
		for _, d := range diags {
			t.Logf("reported: %s", d)
		}
	}
}
