// Package dataflow is the flow-analysis substrate of the buflife
// analyzer: a statement walker — source-order scanning, conservative
// branch merging, terminating-path pruning, loop-body isolation, fresh
// scopes for function literals — with an obligation lattice:
// per-function tracking of values that must be released exactly once
// (pooled buffers, refcount release callbacks).
//
// The analysis model is deliberately intraprocedural and errs toward
// silence: false negatives are acceptable, false positives fail CI.
// Concretely:
//
//   - An obligation whose state differs between two merging paths (or
//     that exists on only one of them) is dropped at the merge — no
//     later check fires on an "unknown" value.
//   - Handing a tracked value to any call the client does not recognize
//     discharges the obligation (ownership transfer is assumed).
//   - Loop bodies are scanned once on a cloned flow; a loop that may run
//     zero times never strengthens the outer state.
//
// Path exits (returns, fall-off-the-end, loop back-edges) invoke client
// hooks with the path's final flow, which is where leak checks belong:
// a terminating branch is checked with exactly the obligations live on
// that path, so "released on the error path, leaked on success" and its
// mirror image are both caught without cross-path confusion.
package dataflow

import (
	"go/token"
	"go/types"
	"sort"
)

// State is the lattice state of one obligation.
type State uint8

const (
	// Live: acquired and not yet released on this path.
	Live State = iota
	// Released: released (or ownership transferred) on this path.
	Released
)

// Obligation tracks one value that must be released exactly once.
type Obligation struct {
	// Var is the local variable holding the tracked value.
	Var *types.Var
	// Kind is a client label ("buffer", "release", ...) echoed in
	// diagnostics.
	Kind string
	// State is the obligation's position in the lattice on this path.
	State State
	// Pos is the acquisition site.
	Pos token.Pos
	// Depth is the loop-nesting depth at acquisition; obligations
	// acquired inside a loop body must be discharged before the
	// iteration's path ends.
	Depth int
}

// Flow is the obligation state along one control-flow path.
type Flow struct {
	obs map[*types.Var]*Obligation
}

// NewFlow returns an empty flow.
func NewFlow() *Flow { return &Flow{obs: make(map[*types.Var]*Obligation)} }

// Clone deep-copies the flow for a forked path.
func (f *Flow) Clone() *Flow {
	c := NewFlow()
	for v, ob := range f.obs {
		cp := *ob
		c.obs[v] = &cp
	}
	return c
}

// Add records a new obligation for v, replacing any previous one (a
// reassignment from the acquiring call re-arms the variable).
func (f *Flow) Add(v *types.Var, kind string, pos token.Pos, depth int) {
	f.obs[v] = &Obligation{Var: v, Kind: kind, State: Live, Pos: pos, Depth: depth}
}

// Get returns the obligation tracked for v, or nil.
func (f *Flow) Get(v *types.Var) *Obligation { return f.obs[v] }

// Drop stops tracking v on this path (state became unknowable).
func (f *Flow) Drop(v *types.Var) { delete(f.obs, v) }

// Obligations returns the tracked obligations in source order.
func (f *Flow) Obligations() []*Obligation {
	out := make([]*Obligation, 0, len(f.obs))
	for _, ob := range f.obs {
		out = append(out, ob)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out
}

// Merge folds another path's flow into this one, conservatively: an
// obligation survives only if both paths agree on its state; anything
// mixed or one-sided is dropped, silencing every later check on it.
func (f *Flow) Merge(other *Flow) {
	for v, ob := range f.obs {
		oo := other.obs[v]
		if oo == nil || oo.State != ob.State {
			delete(f.obs, v)
		}
	}
}
