// Package chanowner enforces declared send/close ownership for
// channel-typed struct fields. Each field carries a directive (in its
// doc comment or trailing on its line):
//
//	//adaptivelint:chan owner=<func,...|none> close=<func|never>
//
// owner names the functions (bare function or method names; literals
// attribute to their enclosing declaration) allowed to send on the
// channel — `none` declares a signal-only channel that is closed, never
// sent on. close names the single function allowed to close it —
// `never` declares a channel that must not be closed (receivers never
// close, so a ranged delivery channel stays open until the node drops
// it).
//
// In a package with at least one chan directive, the analyzer checks:
//
//   - every channel-typed struct field is annotated (ownership is a
//     package-wide contract, not an opt-in per field);
//   - every send site sits inside a declared owner;
//   - every close site sits inside the declared close function, all
//     close sites share one function ("reachable from exactly one
//     role"), and close=never fields are never closed;
//   - a declared close function actually closes the channel somewhere
//     (a Close that no longer closes its stop channel strands every
//     worker selecting on it).
//
// The analysis is syntactic over field selections: a channel copied
// into a local or returned escapes the check (false negatives are
// acceptable; false positives fail CI).
package chanowner

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"adaptivecast/internal/analysis"
	"adaptivecast/internal/analysis/dataflow"
)

// Analyzer checks declared channel ownership.
var Analyzer = &analysis.Analyzer{
	Name:       "chanowner",
	Doc:        "channel-typed struct fields declare who sends and who closes; sends and closes outside the declared owners are reported",
	BugClass:   "sends on closed channels, double closes, stranded receivers",
	Directives: []string{"//adaptivelint:chan owner=<func,...|none> close=<func|never>"},
	Run:        run,
}

// rule is one annotated channel field.
type rule struct {
	field      *types.Var
	name       string // Type.field, for messages
	owners     map[string]bool
	ownerNone  bool
	closer     string // "" when close=never
	closeNever bool
	pos        token.Pos // the field name, a reportable anchor

	closeSites []closeSite
}

type closeSite struct {
	fn  *ast.FuncDecl
	pos token.Pos
}

func run(pass *analysis.Pass) error {
	rules, annotated := collectRules(pass)
	if !annotated {
		return nil
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			scanFunc(pass, fd, rules)
		}
	}
	for _, r := range rules {
		if r == nil || r.closeNever || r.closer == "" {
			continue
		}
		if len(r.closeSites) == 0 {
			pass.Reportf(r.pos, "%s declares close=%s, but nothing in the package closes it; its receivers could never be released", r.name, r.closer)
		}
	}
	return nil
}

// collectRules parses the chan directives off every struct's channel
// fields and reports unannotated channel fields once any directive
// exists in the package.
func collectRules(pass *analysis.Pass) (map[*types.Var]*rule, bool) {
	rules := make(map[*types.Var]*rule)
	type pending struct {
		field *types.Var
		name  string
		pos   token.Pos
	}
	var bare []pending
	annotated := false
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				if len(field.Names) == 0 {
					continue
				}
				t := pass.TypesInfo.TypeOf(field.Type)
				if t == nil {
					continue
				}
				if _, isChan := t.Underlying().(*types.Chan); !isChan {
					continue
				}
				dirs := append(analysis.CommentDirectives(field.Doc), analysis.CommentDirectives(field.Comment)...)
				var chanDir *analysis.Directive
				for i := range dirs {
					if dirs[i].Verb == "chan" {
						chanDir = &dirs[i]
						break
					}
				}
				for _, nameIdent := range field.Names {
					fv, ok := pass.TypesInfo.Defs[nameIdent].(*types.Var)
					if !ok {
						continue
					}
					qual := ts.Name.Name + "." + nameIdent.Name
					if chanDir == nil {
						bare = append(bare, pending{field: fv, name: qual, pos: nameIdent.Pos()})
						continue
					}
					annotated = true
					r, err := parseRule(fv, qual, nameIdent.Pos(), chanDir.Args)
					if err != nil {
						pass.Reportf(nameIdent.Pos(), "malformed chan directive on %s: %v", qual, err)
						continue
					}
					rules[fv] = r
				}
			}
			return true
		})
	}
	if annotated {
		for _, p := range bare {
			pass.Reportf(p.pos, "channel-typed field %s has no //adaptivelint:chan directive; this package declares channel ownership", p.name)
		}
	}
	return rules, annotated
}

func parseRule(fv *types.Var, name string, pos token.Pos, args string) (*rule, error) {
	r := &rule{field: fv, name: name, owners: make(map[string]bool), pos: pos}
	var haveOwner, haveClose bool
	for _, f := range strings.Fields(args) {
		switch {
		case strings.HasPrefix(f, "owner="):
			haveOwner = true
			v := strings.TrimPrefix(f, "owner=")
			if v == "none" {
				r.ownerNone = true
				break
			}
			for _, o := range strings.Split(v, ",") {
				if o != "" {
					r.owners[o] = true
				}
			}
		case strings.HasPrefix(f, "close="):
			haveClose = true
			v := strings.TrimPrefix(f, "close=")
			switch {
			case v == "never":
				r.closeNever = true
			case strings.Contains(v, ","):
				return nil, fmt.Errorf("close= names %q; a channel must be closed from exactly one role", v)
			default:
				r.closer = v
			}
		default:
			return nil, fmt.Errorf("unknown key %q (want owner=... close=...)", f)
		}
	}
	if !haveOwner || !haveClose {
		return nil, fmt.Errorf("both owner= and close= are required")
	}
	if !r.ownerNone && len(r.owners) == 0 {
		return nil, fmt.Errorf("owner= is empty")
	}
	return r, nil
}

// roleMatches reports whether the enclosing declaration fd satisfies a
// declared role name: bare ("Stop") or receiver-qualified ("Node.Stop").
func roleMatches(fd *ast.FuncDecl, role string) bool {
	if role == fd.Name.Name {
		return true
	}
	typ, fn, ok := strings.Cut(role, ".")
	if !ok || fn != fd.Name.Name {
		return false
	}
	return recvTypeName(fd) == typ
}

func recvTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	switch g := t.(type) { // a generic receiver, Ring[T] or Map[K, V]
	case *ast.IndexExpr:
		t = g.X
	case *ast.IndexListExpr:
		t = g.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

func matchesAny(fd *ast.FuncDecl, roles map[string]bool) bool {
	for role := range roles {
		if roleMatches(fd, role) {
			return true
		}
	}
	return false
}

// scanFunc attributes every send and close inside fd (function literals
// included — a closure runs with its declaration's identity) to fd.
func scanFunc(pass *analysis.Pass, fd *ast.FuncDecl, rules map[*types.Var]*rule) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.SendStmt:
			fv := dataflow.FieldVar(pass.TypesInfo, st.Chan)
			if fv == nil {
				return true
			}
			r := rules[fv]
			if r == nil {
				return true
			}
			switch {
			case r.ownerNone:
				pass.Reportf(st.Arrow, "send on %s, declared owner=none (signal-only channel)", r.name)
			case !matchesAny(fd, r.owners):
				pass.Reportf(st.Arrow, "send on %s from %s; declared owners: %s", r.name, fd.Name.Name, ownersList(r.owners))
			}
		case *ast.CallExpr:
			id, ok := st.Fun.(*ast.Ident)
			if !ok || id.Name != "close" || len(st.Args) != 1 {
				return true
			}
			if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin {
				return true
			}
			fv := dataflow.FieldVar(pass.TypesInfo, st.Args[0])
			if fv == nil {
				return true
			}
			r := rules[fv]
			if r == nil {
				return true
			}
			switch {
			case r.closeNever:
				pass.Reportf(st.Pos(), "close of %s, declared close=never", r.name)
			case !roleMatches(fd, r.closer):
				pass.Reportf(st.Pos(), "close of %s from %s; declared closer: %s", r.name, fd.Name.Name, r.closer)
			default:
				if len(r.closeSites) > 0 && r.closeSites[0].fn != fd {
					pass.Reportf(st.Pos(), "close of %s reachable from more than one function (%s and %s); a channel must be closed from exactly one place", r.name, r.closeSites[0].fn.Name.Name, fd.Name.Name)
				}
				r.closeSites = append(r.closeSites, closeSite{fn: fd, pos: st.Pos()})
			}
		}
		return true
	})
}

func ownersList(owners map[string]bool) string {
	names := make([]string, 0, len(owners))
	for o := range owners {
		names = append(names, o)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
