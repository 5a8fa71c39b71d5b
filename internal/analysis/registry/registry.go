// Package registry is the single source of truth for the repository's
// analyzer suite. cmd/adaptivelint, the selftest negative control, and
// the docs all enumerate the same list, so adding an analyzer here is
// the one step that wires it into the driver, -list, SARIF rule
// metadata and the CI gate — and the selftest immediately fails until
// the shared fixture seeds a violation for it.
package registry

import (
	"adaptivecast/internal/analysis"
	"adaptivecast/internal/analysis/buflife"
	"adaptivecast/internal/analysis/internalboundary"
	"adaptivecast/internal/analysis/wirekind"
)

// All returns the full analyzer suite in canonical order. The slice is
// fresh on every call so callers may substitute entries (the selftest
// swaps internalboundary's facade list for its fixture module).
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		wirekind.Analyzer,
		internalboundary.Analyzer,
		buflife.Analyzer,
	}
}
