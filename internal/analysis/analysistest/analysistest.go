// Package analysistest runs an analyzer over a testdata source tree and
// checks its findings against // want comments, mirroring the
// golang.org/x/tools/go/analysis/analysistest contract:
//
//	p.Put(eb) // want "pooled buffer released twice"
//
// Each string after "want" is a regular expression; a line with a want
// comment must produce one matching diagnostic per expectation, and every
// diagnostic must be expected. Test packages live under
// <testdata>/src/<importpath>/ and are loaded from source, with stdlib
// imports resolved from build-cache export data, so the harness works
// offline like the rest of the suite.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"adaptivecast/internal/analysis"
)

// Run loads the package at <testdata>/src/<path> as import path `path`
// inside module `module` and checks analyzer a's findings against the
// package's want comments. It returns the surviving diagnostics so tests
// can make extra assertions.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, path, module string) []analysis.Diagnostic {
	t.Helper()
	pkg, err := Load(testdata, path, module)
	if err != nil {
		t.Fatalf("load %s: %v", path, err)
	}
	diags, err := analysis.Run(pkg, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("run %s on %s: %v", a.Name, path, err)
	}
	checkWants(t, pkg, diags)
	return diags
}

type expectation struct {
	re      *regexp.Regexp
	matched bool
}

// checkWants compares diagnostics against the want comments of the
// package, both directions.
func checkWants(t *testing.T, pkg *analysis.Package, diags []analysis.Diagnostic) {
	t.Helper()
	wants := make(map[string][]*expectation) // "file:line" -> expectations
	for _, f := range pkg.Syntax {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				patterns, ok := parseWant(c.Text)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				for _, p := range patterns {
					re, err := regexp.Compile(p)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", key, p, err)
					}
					wants[key] = append(wants[key], &expectation{re: re})
				}
			}
		}
	}
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		found := false
		for _, exp := range wants[key] {
			if !exp.matched && exp.re.MatchString(d.Message) {
				exp.matched, found = true, true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for key, exps := range wants {
		for _, exp := range exps {
			if !exp.matched {
				t.Errorf("%s: no diagnostic matched %q", key, exp.re)
			}
		}
	}
}

// parseWant extracts the quoted patterns from a `// want "..." "..."`
// comment.
func parseWant(text string) ([]string, bool) {
	text = strings.TrimPrefix(text, "//")
	text = strings.TrimSpace(text)
	if !strings.HasPrefix(text, "want ") {
		return nil, false
	}
	rest := strings.TrimSpace(strings.TrimPrefix(text, "want "))
	var out []string
	for rest != "" {
		if rest[0] != '"' && rest[0] != '`' {
			return nil, false
		}
		lit, remainder, err := cutStringLit(rest)
		if err != nil {
			return nil, false
		}
		out = append(out, lit)
		rest = strings.TrimSpace(remainder)
	}
	return out, len(out) > 0
}

// cutStringLit splits one leading Go string literal off s.
func cutStringLit(s string) (value, rest string, err error) {
	quote := s[0]
	for i := 1; i < len(s); i++ {
		if s[i] == '\\' && quote == '"' {
			i++
			continue
		}
		if s[i] == quote {
			v, err := strconv.Unquote(s[:i+1])
			return v, s[i+1:], err
		}
	}
	return "", "", fmt.Errorf("unterminated string in want comment: %s", s)
}

// sourceLoader type-checks testdata packages from source, resolving
// sibling testdata imports recursively and everything else from export
// data.
type sourceLoader struct {
	root    string // <testdata>/src
	module  string
	fset    *token.FileSet
	loaded  map[string]*types.Package
	syntax  map[string][]*ast.File
	infos   map[string]*types.Info
	exports map[string]string
	gc      types.Importer
}

// Load type-checks the package at <testdata>/src/<path> from source and
// returns it ready for analysis.Run — exposed so tests can drive
// analyzers over seeded violations without the want-comment contract
// (the lint self-test).
func Load(testdata, path, module string) (*analysis.Package, error) {
	abs, err := filepath.Abs(filepath.Join(testdata, "src"))
	if err != nil {
		return nil, err
	}
	ld := &sourceLoader{
		root:    abs,
		module:  module,
		fset:    token.NewFileSet(),
		loaded:  make(map[string]*types.Package),
		syntax:  make(map[string][]*ast.File),
		infos:   make(map[string]*types.Info),
		exports: make(map[string]string),
	}
	ld.gc = analysis.NewExportImporter(ld.fset, ld.exports)
	tpkg, err := ld.Import(path)
	if err != nil {
		return nil, err
	}
	info := ld.infos[path]
	return &analysis.Package{
		Path:      path,
		Dir:       filepath.Join(abs, filepath.FromSlash(path)),
		Module:    module,
		Fset:      ld.fset,
		Syntax:    ld.syntax[path],
		Types:     tpkg,
		TypesInfo: info,
	}, nil
}

func (ld *sourceLoader) dirFor(path string) (string, bool) {
	dir := filepath.Join(ld.root, filepath.FromSlash(path))
	st, err := os.Stat(dir)
	return dir, err == nil && st.IsDir()
}

func (ld *sourceLoader) Import(path string) (*types.Package, error) {
	if pkg, ok := ld.loaded[path]; ok {
		return pkg, nil
	}
	if dir, ok := ld.dirFor(path); ok {
		return ld.importSource(path, dir)
	}
	return ld.importExport(path)
}

var _ types.Importer = (*sourceLoader)(nil)

func (ld *sourceLoader) importSource(path, dir string) (*types.Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	info := newInfo()
	conf := types.Config{Importer: ld, Error: func(error) {}}
	tpkg, err := conf.Check(path, ld.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", path, err)
	}
	ld.loaded[path] = tpkg
	ld.syntax[path] = files
	ld.infos[path] = info
	return tpkg, nil
}

// importExport resolves a non-testdata import (stdlib, or anything the
// surrounding toolchain can build) through `go list -export`.
func (ld *sourceLoader) importExport(path string) (*types.Package, error) {
	if _, ok := ld.exports[path]; !ok {
		listed, err := analysis.GoListExport(path)
		if err != nil {
			return nil, fmt.Errorf("resolve import %q: %w", path, err)
		}
		for p, exp := range listed {
			ld.exports[p] = exp
		}
	}
	pkg, err := ld.gc.Import(path)
	if err != nil {
		return nil, err
	}
	ld.loaded[path] = pkg
	return pkg, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}
