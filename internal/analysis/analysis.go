// Package analysis is a self-contained static-analysis framework for
// this repository: a minimal mirror of the golang.org/x/tools/go/analysis
// vocabulary (Analyzer, Pass, Diagnostic) plus a package loader built on
// `go list -export` and the stdlib go/types importer, so the suite runs
// offline with no dependency outside the standard library and toolchain.
//
// The repo-specific analyzers live in subpackages (the roster is
// internal/analysis/registry): wirekind keeps frame kinds, the decoder
// corpus and the version gates coherent in the wire codec,
// internalboundary keeps cmd/ and examples/ behind the public facades,
// and buflife proves every pooled buffer is released exactly once and
// never read after release. cmd/adaptivelint is the multichecker
// driver; CI runs it over the whole tree and fails on any finding.
//
// Findings are suppressed only by an inline justification directive on
// the flagged line (or the line above it):
//
//	//adaptivelint:ignore <analyzer> -- <why this is safe>
//
// An ignore directive without the `-- reason` clause is itself reported,
// so suppressions stay reviewable.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one static check. Run inspects a single type-checked
// package via its Pass and reports findings with Pass.Report/Reportf.
type Analyzer struct {
	// Name identifies the analyzer in output and in ignore directives.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// BugClass names the class of bug the analyzer prevents, for
	// -list output, SARIF rule metadata and the docs table.
	BugClass string
	// Directives lists the //adaptivelint: directive forms the
	// analyzer consumes, if any (grammar only, for -list and docs).
	Directives []string
	// Run executes the check over one package.
	Run func(*Pass) error
}

// Pass carries one type-checked package through an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files is the package's parsed syntax (comments included).
	Files []*ast.File
	// Pkg and TypesInfo are the go/types view of the package.
	Pkg       *types.Package
	TypesInfo *types.Info
	// Path is the package's import path, Dir its directory on disk, and
	// Module the module path the package belongs to ("" outside modules).
	Path   string
	Dir    string
	Module string

	diagnostics []Diagnostic
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Report records a finding at pos.
func (p *Pass) Report(pos token.Pos, msg string) {
	p.diagnostics = append(p.diagnostics, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  msg,
	})
}

// Reportf is Report with formatting.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(pos, fmt.Sprintf(format, args...))
}

// Directive is one //adaptivelint:<verb> <args> comment.
type Directive struct {
	Verb string // the word after "adaptivelint:"
	Args string // the rest of the line, space-trimmed
	Pos  token.Pos
}

const directivePrefix = "//adaptivelint:"

// ParseDirective extracts the adaptivelint directive from one comment,
// if any. Directives follow the Go convention for machine-read comments:
// no space after //, verb attached to the tool name by a colon.
func ParseDirective(c *ast.Comment) (Directive, bool) {
	if !strings.HasPrefix(c.Text, directivePrefix) {
		return Directive{}, false
	}
	rest := strings.TrimPrefix(c.Text, directivePrefix)
	verb, args, _ := strings.Cut(rest, " ")
	return Directive{Verb: verb, Args: strings.TrimSpace(args), Pos: c.Pos()}, true
}

// Directives collects every adaptivelint directive in the file set of a
// pass, in position order.
func (p *Pass) Directives() []Directive {
	var out []Directive
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if d, ok := ParseDirective(c); ok {
					out = append(out, d)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out
}

// CommentDirectives returns the directives attached to a specific
// comment group (nil-safe).
func CommentDirectives(cg *ast.CommentGroup) []Directive {
	if cg == nil {
		return nil
	}
	var out []Directive
	for _, c := range cg.List {
		if d, ok := ParseDirective(c); ok {
			out = append(out, d)
		}
	}
	return out
}

// ignore is one parsed //adaptivelint:ignore directive.
type ignore struct {
	analyzer string
	reason   string
	file     string
	line     int
	pos      token.Pos
}

// collectIgnores parses the ignore directives of a package once; the
// runner applies them to every analyzer's findings.
func collectIgnores(fset *token.FileSet, files []*ast.File) []ignore {
	var out []ignore
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d, ok := ParseDirective(c)
				if !ok || d.Verb != "ignore" {
					continue
				}
				target, reason, found := strings.Cut(d.Args, "--")
				ig := ignore{
					analyzer: strings.TrimSpace(target),
					file:     fset.Position(c.Pos()).Filename,
					line:     fset.Position(c.Pos()).Line,
					pos:      c.Pos(),
				}
				if found {
					ig.reason = strings.TrimSpace(reason)
				}
				out = append(out, ig)
			}
		}
	}
	return out
}

// Run executes the analyzers over one loaded package and returns the
// surviving diagnostics: findings matched by a justified ignore directive
// (same file, same or previous line, matching analyzer name) are
// filtered; ignore directives with no justification are turned into
// findings themselves, as are justified ignores that matched nothing
// (a stale suppression hides future regressions).
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Syntax,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			Path:      pkg.Path,
			Dir:       pkg.Dir,
			Module:    pkg.Module,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
		diags = append(diags, pass.diagnostics...)
	}

	ignores := collectIgnores(pkg.Fset, pkg.Syntax)
	used := make([]bool, len(ignores))
	var out []Diagnostic
	for _, d := range diags {
		suppressed := false
		for i, ig := range ignores {
			if ig.reason == "" || ig.analyzer != d.Analyzer {
				continue
			}
			if ig.file == d.Pos.Filename && (ig.line == d.Pos.Line || ig.line == d.Pos.Line-1) {
				suppressed, used[i] = true, true
				break
			}
		}
		if !suppressed {
			out = append(out, d)
		}
	}
	for i, ig := range ignores {
		switch {
		case ig.reason == "":
			out = append(out, Diagnostic{
				Analyzer: "adaptivelint",
				Pos:      pkg.Fset.Position(ig.pos),
				Message:  fmt.Sprintf("ignore directive for %q lacks a justification (use: //adaptivelint:ignore %s -- reason)", ig.analyzer, ig.analyzer),
			})
		case !hasAnalyzer(analyzers, ig.analyzer):
			// A typo'd analyzer name would otherwise suppress nothing
			// *silently* — the worst failure mode for a suppression.
			out = append(out, Diagnostic{
				Analyzer: "adaptivelint",
				Pos:      pkg.Fset.Position(ig.pos),
				Message:  fmt.Sprintf("ignore directive names unknown analyzer %q (known: %s)", ig.analyzer, strings.Join(analyzerNames(analyzers), ", ")),
			})
		case !used[i]:
			out = append(out, Diagnostic{
				Analyzer: "adaptivelint",
				Pos:      pkg.Fset.Position(ig.pos),
				Message:  fmt.Sprintf("stale ignore directive: %s reports nothing on this line", ig.analyzer),
			})
		}
	}
	sortDiagnostics(out)
	return out, nil
}

func analyzerNames(analyzers []*Analyzer) []string {
	names := make([]string, len(analyzers))
	for i, a := range analyzers {
		names[i] = a.Name
	}
	sort.Strings(names)
	return names
}

func hasAnalyzer(analyzers []*Analyzer, name string) bool {
	for _, a := range analyzers {
		if a.Name == name {
			return true
		}
	}
	return false
}

func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Message < b.Message
	})
}
