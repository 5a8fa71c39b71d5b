package analysis_test

import (
	"go/ast"
	"strings"
	"testing"

	"adaptivecast/internal/analysis"
	"adaptivecast/internal/analysis/analysistest"
)

// poke reports every call to a function named poke: the smallest
// analyzer the suppression contract can be checked against.
var poke = &analysis.Analyzer{
	Name: "poke",
	Doc:  "reports every call to poke",
	Run: func(pass *analysis.Pass) error {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "poke" {
						pass.Reportf(call.Pos(), "call to poke")
					}
				}
				return true
			})
		}
		return nil
	},
}

// TestSuppressions checks the four ignore-directive outcomes over
// package b: a justified ignore suppresses, an unjustified one is
// reported alongside the original finding, a stale one is reported on
// its own, and one naming an analyzer outside the run set is reported
// as unknown with the known names listed.
func TestSuppressions(t *testing.T) {
	pkg, err := analysistest.Load("testdata", "b", "example.com/m")
	if err != nil {
		t.Fatalf("load b: %v", err)
	}
	diags, err := analysis.Run(pkg, []*analysis.Analyzer{poke})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var finding, missingReason, stale, unknown int
	for _, d := range diags {
		switch {
		case d.Analyzer == "poke":
			finding++
		case strings.Contains(d.Message, "lacks a justification"):
			missingReason++
		case strings.Contains(d.Message, "stale ignore directive"):
			stale++
		case strings.Contains(d.Message, "unknown analyzer"):
			unknown++
			if !strings.Contains(d.Message, "poke") {
				t.Errorf("unknown-analyzer finding does not list the known names: %s", d)
			}
		default:
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	// The justified ignore in justified() must have silenced its
	// finding, so the only surviving poke finding is the unjustified one.
	if finding != 1 || missingReason != 1 || stale != 1 || unknown != 1 {
		t.Errorf("got %d findings / %d missing-justification / %d stale / %d unknown, want 1/1/1/1; all: %v",
			finding, missingReason, stale, unknown, diags)
	}
}
