// Package buflife enforces the lifecycle of pooled encode buffers and
// refcounted release callbacks on the zero-alloc send path. A package
// declares its pools with package-level directives:
//
//	//adaptivelint:bufpool type=pool.Pool[encBuf] get=Get put=Put releaser=Releaser
//	//adaptivelint:bufshared type=sharedRelease acquire=acquire
//
// bufpool names a pool type and its lifecycle methods (releaser= is
// optional: a pool that hands out no release callback omits it). The type
// may be the package's own or an imported one (pool.Pool), and a generic
// type may be pinned to one instantiation (pool.Pool[encBuf],
// pool.Pool[wire.Scratch]) so each instance gets its own line; without
// type arguments the line covers every instantiation. A value
// bound from `get` must reach `put` or `releaser` exactly once on every path
// out of the function (error returns included), must not be read after
// release, and must not escape into struct fields, other function
// literals, or map/slice stores. bufshared names a refcount fan-out
// type: a value bound from `acquire` is a release callback that must be
// invoked (or handed off) exactly once per path.
//
// The analysis rides the dataflow obligation walker: path-sensitive,
// intraprocedural, erring toward silence. Ownership transfers discharge
// obligations — passing a tracked value to an unrecognized call,
// appending it to a slice, or returning it hands it to code this
// analyzer cannot see, so nothing fires; a release callback, once
// handed off or invoked, is spent, and a second use reports. Rebinding
// a released variable from `get` re-arms it as a fresh obligation (the
// released-then-reacquired pattern is legal). Derived slices (`eb.b`
// handed to an encoder) are not tracked across calls; the FrameOwner
// borrowing contract at the transport boundary covers that half, this
// analyzer covers the acquire/release bookkeeping around it.
package buflife

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"adaptivecast/internal/analysis"
	"adaptivecast/internal/analysis/dataflow"
)

// Analyzer checks pooled-buffer and release-callback lifecycles.
var Analyzer = &analysis.Analyzer{
	Name:     "buflife",
	Doc:      "pooled buffers must reach put/releaser exactly once on every path, never be used after release, and never escape their function; acquired release callbacks are spent exactly once",
	BugClass: "use-after-release and double-release of pooled memory; leaked refcounts",
	Directives: []string{
		"//adaptivelint:bufpool type=<T> get=<m> put=<m> [releaser=<m>]",
		"//adaptivelint:bufshared type=<T> acquire=<m>",
	},
	Run: run,
}

const (
	kindBuffer  = "pooled buffer"
	kindRelease = "release callback"
)

// poolCfg is one declared buffer pool: a type, and for a generic one
// the instantiation it is pinned to (nil args: any).
type poolCfg struct {
	typ                *types.TypeName
	args               []types.Type
	get, put, releaser string
}

// sharedCfg is one declared refcount fan-out type.
type sharedCfg struct {
	typ     *types.TypeName
	acquire string
}

type config struct {
	pools  []*poolCfg
	shared []*sharedCfg
}

func run(pass *analysis.Pass) error {
	cfg, err := parseConfig(pass)
	if err != nil {
		return err
	}
	if len(cfg.pools) == 0 && len(cfg.shared) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkBody(pass, cfg, fd.Body, dataflow.NewFlow())
		}
	}
	return nil
}

func parseConfig(pass *analysis.Pass) (*config, error) {
	cfg := &config{}
	for _, d := range pass.Directives() {
		switch d.Verb {
		case "bufpool":
			kv, err := keyvals(d.Args, "type", "get", "put")
			if err != nil {
				return nil, fmt.Errorf("bufpool directive: %w", err)
			}
			tn, args, err := lookupInstance(pass, kv["type"])
			if err != nil {
				return nil, fmt.Errorf("bufpool directive: %w", err)
			}
			cfg.pools = append(cfg.pools, &poolCfg{
				typ: tn, args: args, get: kv["get"], put: kv["put"], releaser: kv["releaser"],
			})
		case "bufshared":
			kv, err := keyvals(d.Args, "type", "acquire")
			if err != nil {
				return nil, fmt.Errorf("bufshared directive: %w", err)
			}
			tn, err := lookupType(pass, kv["type"])
			if err != nil {
				return nil, fmt.Errorf("bufshared directive: %w", err)
			}
			cfg.shared = append(cfg.shared, &sharedCfg{typ: tn, acquire: kv["acquire"]})
		}
	}
	return cfg, nil
}

func keyvals(args string, required ...string) (map[string]string, error) {
	kv := make(map[string]string)
	for _, f := range strings.Fields(args) {
		k, v, ok := strings.Cut(f, "=")
		if !ok || v == "" {
			return nil, fmt.Errorf("malformed assignment %q (want key=value)", f)
		}
		kv[k] = v
	}
	for _, r := range required {
		if kv[r] == "" {
			return nil, fmt.Errorf("missing %s=", r)
		}
	}
	return kv, nil
}

// lookupType resolves a type name declared in the package, or in one it
// imports when qualified by that package's name (pool.Pool).
func lookupType(pass *analysis.Pass, name string) (*types.TypeName, error) {
	scope := pass.Pkg.Scope()
	if pkgName, typName, ok := strings.Cut(name, "."); ok {
		scope = nil
		for _, imp := range pass.Pkg.Imports() {
			if imp.Name() == pkgName {
				scope, name = imp.Scope(), typName
				break
			}
		}
		if scope == nil {
			return nil, fmt.Errorf("names type %q of a package not imported here", name)
		}
	}
	obj := scope.Lookup(name)
	if obj == nil {
		return nil, fmt.Errorf("names unknown type %q", name)
	}
	tn, ok := obj.(*types.TypeName)
	if !ok {
		return nil, fmt.Errorf("%q is not a type", name)
	}
	return tn, nil
}

// lookupInstance resolves a type name with optional type arguments,
// pool.Pool[wire.Scratch], to the generic type and its arguments.
func lookupInstance(pass *analysis.Pass, spec string) (*types.TypeName, []types.Type, error) {
	name, rest, generic := strings.Cut(spec, "[")
	tn, err := lookupType(pass, name)
	if err != nil || !generic {
		return tn, nil, err
	}
	list, ok := strings.CutSuffix(rest, "]")
	if !ok || list == "" {
		return nil, nil, fmt.Errorf("malformed type arguments in %q", spec)
	}
	var args []types.Type
	for _, a := range strings.Split(list, ",") {
		at, err := lookupType(pass, a)
		if err != nil {
			return nil, nil, err
		}
		args = append(args, at.Type())
	}
	named, ok := tn.Type().(*types.Named)
	if !ok || named.TypeParams().Len() != len(args) {
		return nil, nil, fmt.Errorf("%q does not take %d type arguments", name, len(args))
	}
	return tn, args, nil
}

// checkBody runs the obligation walker over one function body (or
// function literal, with a fresh flow).
func checkBody(pass *analysis.Pass, cfg *config, body *ast.BlockStmt, f *dataflow.Flow) {
	c := &checker{pass: pass, cfg: cfg, releaseArgs: make(map[*ast.Ident]bool)}
	c.w = &dataflow.Walker{Client: c}
	// Pre-index the identifiers that appear as a release call's own
	// argument: the Call hook owns their diagnostics (double release),
	// so the Use hook must not also flag them as a read-after-release.
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if pool, m := c.poolFor(call); pool != nil && (m == pool.put || m == pool.releaser) && len(call.Args) == 1 {
			if id, ok := call.Args[0].(*ast.Ident); ok {
				c.releaseArgs[id] = true
			}
		}
		return true
	})
	c.w.Walk(body, f)
}

type checker struct {
	pass        *analysis.Pass
	cfg         *config
	w           *dataflow.Walker
	releaseArgs map[*ast.Ident]bool
}

var _ dataflow.Client = (*checker)(nil)

// methodOn resolves a call to a method on a named type, returning the
// receiver's type (an instantiation, for a generic one) and the method
// name.
func (c *checker) methodOn(call *ast.CallExpr) (*types.Named, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	fn, ok := c.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return nil, ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil, ""
	}
	rt := sig.Recv().Type()
	if ptr, ok := rt.(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok {
		return nil, ""
	}
	return named, fn.Name()
}

func (c *checker) poolFor(call *ast.CallExpr) (*poolCfg, string) {
	named, m := c.methodOn(call)
	if named == nil {
		return nil, ""
	}
	for _, p := range c.cfg.pools {
		if p.typ == named.Obj() && sameArgs(p.args, named.TypeArgs()) {
			return p, m
		}
	}
	return nil, ""
}

// sameArgs reports whether an instantiation's type arguments are the
// ones a directive pinned (none pinned matches any).
func sameArgs(want []types.Type, got *types.TypeList) bool {
	if want == nil {
		return true
	}
	if got.Len() != len(want) {
		return false
	}
	for i, w := range want {
		if !types.Identical(w, got.At(i)) {
			return false
		}
	}
	return true
}

func (c *checker) sharedFor(call *ast.CallExpr) (*sharedCfg, string) {
	named, m := c.methodOn(call)
	if named == nil {
		return nil, ""
	}
	for _, s := range c.cfg.shared {
		if s.typ == named.Obj() {
			return s, m
		}
	}
	return nil, ""
}

// trackedArg resolves a plain-identifier argument to its tracked
// obligation, if any.
func (c *checker) trackedVar(e ast.Expr) *types.Var {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	v, ok := c.pass.TypesInfo.Uses[id].(*types.Var)
	if !ok {
		return nil
	}
	return v
}

// Use reports reads of released values. The releasing call itself scans
// its argument while the value is still live, so only genuinely late
// reads fire.
func (c *checker) Use(id *ast.Ident, f *dataflow.Flow) {
	if c.releaseArgs[id] {
		return
	}
	v, ok := c.pass.TypesInfo.Uses[id].(*types.Var)
	if !ok {
		return
	}
	if ob := f.Get(v); ob != nil && ob.State == dataflow.Released {
		c.pass.Reportf(id.Pos(), "use of %s %s after its release", ob.Kind, id.Name)
	}
}

// Call interprets pool/shared lifecycle calls, invocation of tracked
// release callbacks, and ownership transfers into unrecognized calls.
func (c *checker) Call(call *ast.CallExpr, f *dataflow.Flow) {
	if pool, m := c.poolFor(call); pool != nil {
		switch m {
		case pool.put, pool.releaser:
			if len(call.Args) == 1 {
				if v := c.trackedVar(call.Args[0]); v != nil {
					if ob := f.Get(v); ob != nil {
						if ob.State == dataflow.Released {
							c.pass.Reportf(call.Pos(), "%s released twice (second release here)", ob.Kind)
							return
						}
						ob.State = dataflow.Released
						return
					}
				}
			}
			return
		case pool.get:
			// Binding happens in Assign; a get whose result is consumed
			// by an enclosing call transfers straight through.
			return
		}
	}
	// Invoking a tracked release callback spends it.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if v, ok := c.pass.TypesInfo.Uses[id].(*types.Var); ok {
			if ob := f.Get(v); ob != nil && ob.Kind == kindRelease {
				// The Use hook already reported a released callback; a
				// live one is spent by this invocation.
				if ob.State == dataflow.Live {
					ob.State = dataflow.Released
				}
				return
			}
		}
	}
	// Unrecognized call: a tracked value passed as a plain argument is
	// handed off. Buffers leave the analysis entirely; release callbacks
	// are spent by the hand-off, so passing one twice still reports.
	for _, arg := range call.Args {
		v := c.trackedVar(arg)
		if v == nil {
			continue
		}
		ob := f.Get(v)
		if ob == nil || ob.State != dataflow.Live {
			continue
		}
		if ob.Kind == kindBuffer {
			f.Drop(v)
		} else {
			ob.State = dataflow.Released
		}
	}
}

// Assign binds new obligations from get/acquire/releaser results and
// catches escapes into fields and collections.
func (c *checker) Assign(as *ast.AssignStmt, f *dataflow.Flow) {
	// Escape check: a tracked value stored anywhere but a plain local
	// (or one of its own fields) outlives this function's view of it.
	for i, lhs := range as.Lhs {
		if _, plain := lhs.(*ast.Ident); plain {
			continue
		}
		var rhs ast.Expr
		if len(as.Rhs) == len(as.Lhs) {
			rhs = as.Rhs[i]
		} else if len(as.Rhs) == 1 {
			rhs = as.Rhs[0]
		}
		v := c.trackedVar(rhs)
		if v == nil {
			continue
		}
		ob := f.Get(v)
		if ob == nil || ob.State != dataflow.Live {
			continue
		}
		if base := baseIdentVar(c.pass.TypesInfo, lhs); base == v {
			continue // eb.b = ... mutates the buffer itself; fine.
		}
		c.pass.Reportf(as.Pos(), "%s %s escapes into %s; pooled memory must not outlive its release", ob.Kind, v.Name(), lhsKind(lhs))
		f.Drop(v)
	}

	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, rhs := range as.Rhs {
		id, ok := as.Lhs[i].(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		var v *types.Var
		if def, ok := c.pass.TypesInfo.Defs[id].(*types.Var); ok {
			v = def
		} else if use, ok := c.pass.TypesInfo.Uses[id].(*types.Var); ok {
			v = use
		}
		if v == nil {
			continue
		}
		if call, ok := rhs.(*ast.CallExpr); ok {
			if pool, m := c.poolFor(call); pool != nil && m == pool.get {
				f.Add(v, kindBuffer, id.Pos(), c.w.Depth())
				continue
			}
			if pool, m := c.poolFor(call); pool != nil && m == pool.releaser {
				f.Add(v, kindRelease, id.Pos(), c.w.Depth())
				continue
			}
			if shared, m := c.sharedFor(call); shared != nil && m == shared.acquire {
				f.Add(v, kindRelease, id.Pos(), c.w.Depth())
				continue
			}
		}
		// Any other overwrite of a tracked variable (aliasing, reuse for
		// an unrelated value) makes its state unknowable.
		if f.Get(v) != nil {
			f.Drop(v)
		}
		// Aliasing a tracked value into a second name splits ownership;
		// stop tracking the original rather than guess.
		if av := c.trackedVar(rhs); av != nil && f.Get(av) != nil {
			f.Drop(av)
		}
	}
}

// FuncLit scans a literal as its own function (fresh flow) and reports
// live tracked values captured from the enclosing scope.
func (c *checker) FuncLit(lit *ast.FuncLit, f *dataflow.Flow) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := c.pass.TypesInfo.Uses[id].(*types.Var)
		if !ok {
			return true
		}
		if ob := f.Get(v); ob != nil && ob.State == dataflow.Live {
			c.pass.Reportf(id.Pos(), "%s %s captured by a function literal; its lifetime would escape the owning function", ob.Kind, v.Name())
			f.Drop(v)
		}
		return true
	})
	checkBody(c.pass, c.cfg, lit.Body, dataflow.NewFlow())
}

// Defer discharges tracked values handed to a deferred call: the call
// runs on every path out of the function, which is exactly the
// release-on-all-paths contract (`defer pool.put(eb)`), and modeling it
// as an immediate release would flag every later read.
func (c *checker) Defer(call *ast.CallExpr, f *dataflow.Flow) {
	for _, arg := range call.Args {
		if v := c.trackedVar(arg); v != nil {
			f.Drop(v)
		}
	}
	// A deferred invocation of a tracked release callback spends it the
	// same way.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if v, ok := c.pass.TypesInfo.Uses[id].(*types.Var); ok && f.Get(v) != nil {
			f.Drop(v)
		}
	}
}

// Return treats returned tracked values as ownership transfers to the
// caller.
func (c *checker) Return(results []ast.Expr, f *dataflow.Flow) {
	for _, r := range results {
		if v := c.trackedVar(r); v != nil {
			f.Drop(v)
		}
	}
}

// Exit reports obligations still live when control leaves the function.
func (c *checker) Exit(pos token.Pos, f *dataflow.Flow) {
	for _, ob := range f.Obligations() {
		if ob.State != dataflow.Live {
			continue
		}
		c.report(pos, ob)
	}
}

// LoopExit reports iteration-scoped obligations still live at the back
// edge: a leak per iteration, not just per call.
func (c *checker) LoopExit(pos token.Pos, f *dataflow.Flow, bodyDepth int) {
	for _, ob := range f.Obligations() {
		if ob.State != dataflow.Live || ob.Depth < bodyDepth {
			continue
		}
		c.report(pos, ob)
		f.Drop(ob.Var) // one report per path, not one per enclosing loop level
	}
}

func (c *checker) report(pos token.Pos, ob *dataflow.Obligation) {
	acquired := c.pass.Fset.Position(ob.Pos)
	what := "put/releaser"
	if ob.Kind == kindRelease {
		what = "an invocation"
	}
	c.pass.Reportf(pos, "%s %s acquired at line %d never reaches %s on this path", ob.Kind, ob.Var.Name(), acquired.Line, what)
}

// lhsKind names the escape destination for the diagnostic.
func lhsKind(e ast.Expr) string {
	switch e.(type) {
	case *ast.SelectorExpr:
		return "a struct field"
	case *ast.IndexExpr:
		return "a map or slice element"
	case *ast.StarExpr:
		return "a pointer target"
	}
	return "a non-local location"
}

// baseIdentVar resolves the ultimate base identifier of a selector /
// index chain to its variable: eb.b → eb, m[k] → m.
func baseIdentVar(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			v, _ := info.Uses[x].(*types.Var)
			return v
		default:
			return nil
		}
	}
}
