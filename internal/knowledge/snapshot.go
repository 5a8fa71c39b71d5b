package knowledge

import (
	"fmt"
	"math"

	"adaptivecast/internal/bayes"
	"adaptivecast/internal/topology"
)

// Snapshot is the serializable heartbeat payload: the sender's (Λ_k, C_k)
// plus its heartbeat sequence number. The live runtime encodes snapshots
// onto the wire; the simulator skips them and merges views directly (the
// equivalence of the two paths is covered by tests).
type Snapshot struct {
	From  topology.NodeID
	Seq   uint64
	Procs []ProcRecord
	Links []LinkRecord
}

// ProcRecord carries one process estimate. Processes with infinite
// distortion (never heard of) are omitted from snapshots entirely.
type ProcRecord struct {
	ID   topology.NodeID
	Dist int
	Est  bayes.State
}

// LinkRecord carries one link estimate.
type LinkRecord struct {
	Link topology.Link
	Dist int
	Est  bayes.State
}

// Snapshot cuts the view into a wire-ready payload: one record per known
// estimate, each an O(1) bayes.State sharing the estimator's immutable
// grid and prior, so the payload stays valid however the view moves on.
// It also refreshes the wire signatures (see DeltaSince): a full snapshot
// ships every record, so it baselines them all — the next delta cut
// against an ack of this version re-ships only what changes afterwards.
func (v *View) Snapshot() *Snapshot {
	v.refreshSigs()
	s := &Snapshot{
		From:  v.self,
		Seq:   v.selfSeq,
		Procs: make([]ProcRecord, 0, len(v.procs)),
		Links: make([]LinkRecord, 0, v.interner.Len()),
	}
	for i := range v.procs {
		ps := &v.procs[i]
		if ps.dist == DistInf || ps.departed {
			continue
		}
		s.Procs = append(s.Procs, ProcRecord{
			ID:   topology.NodeID(i),
			Dist: int(ps.dist),
			Est:  ps.est.State(),
		})
	}
	for idx, ls := range v.knownLinks() {
		s.Links = append(s.Links, LinkRecord{
			Link: v.interner.Link(idx),
			Dist: int(ls.dist),
			Est:  ls.est.State(),
		})
	}
	return s
}

// DeltaSince returns a partial snapshot holding only the records whose
// wire signature changed after version base — the steady-state heartbeat
// payload: once estimates converge their means stop moving beyond
// Params.DeltaEpsilon and drop out, leaving deltas near-empty while the
// header keeps serving the sequence-gap liveness accounting.
//
// ok is false when base cannot anchor a delta — zero (the peer never
// acked anything) or ahead of the current version (the peer acked a
// previous incarnation of this view) — and the caller must fall back to a
// full Snapshot. Deltas are cumulative against the acked base, so a lost
// delta is repaired by the next one without any retransmission protocol:
// the records it carried still satisfy sig.at > base until the peer acks
// past them.
//
// Correctness invariant (induction over acked versions): a peer that
// acked version V holds every record signature stamped at or before V,
// within DeltaEpsilon. Base case: the peer's first merge is a full
// snapshot. Step: the frame cut at version W against acked base V carries
// exactly the records stamped in (V, W].
func (v *View) DeltaSince(base uint64) (s *Snapshot, ok bool) {
	if base == 0 || base > v.version {
		return nil, false
	}
	v.refreshSigs()
	// Size the cut before filling it: growing two slices from nil costs
	// more than a second scan. No scratch is shared between cuts, since
	// Tick is not serialized against itself.
	shipsProc := func(ps *procState) bool { return ps.dist != DistInf && !ps.departed && ps.sig.at > base }
	nProcs, nLinks := 0, 0
	for i := range v.procs {
		if shipsProc(&v.procs[i]) {
			nProcs++
		}
	}
	for _, ls := range v.knownLinks() {
		if ls.sig.at > base {
			nLinks++
		}
	}
	s = &Snapshot{From: v.self, Seq: v.selfSeq,
		Procs: make([]ProcRecord, 0, nProcs), Links: make([]LinkRecord, 0, nLinks)}
	for i := range v.procs {
		if ps := &v.procs[i]; shipsProc(ps) {
			s.Procs = append(s.Procs, ProcRecord{
				ID:   topology.NodeID(i),
				Dist: int(ps.dist),
				Est:  ps.est.State(),
			})
		}
	}
	for idx, ls := range v.knownLinks() {
		if ls.sig.at > base {
			s.Links = append(s.Links, LinkRecord{
				Link: v.interner.Link(idx),
				Dist: int(ls.dist),
				Est:  ls.est.State(),
			})
		}
	}
	return s, true
}

// refreshSigs re-evaluates the wire signature of every record whose dirty
// bit is set, stamping the current version onto records whose content
// moved meaningfully (mean beyond DeltaEpsilon, or distortion or interval
// count changed). It runs at most once per view version, so cutting deltas
// for several neighbors in one heartbeat period evaluates each record once.
func (v *View) refreshSigs() {
	if v.sigVer == v.version {
		return
	}
	v.sigVer = v.version
	eps := v.params.DeltaEpsilon
	if eps < 0 {
		eps = 0
	}
	for i := range v.procs {
		if ps := &v.procs[i]; ps.dirty {
			ps.dirty = false
			ps.sig.refresh(&ps.est, ps.dist, eps, v.version)
		}
	}
	for _, ls := range v.knownLinks() {
		if ls.dirty {
			ls.dirty = false
			ls.sig.refresh(&ls.est, ls.dist, eps, v.version)
		}
	}
}

// refresh re-evaluates a dirty record's signature, stamping it iff its
// content drifted beyond the last stamped signature. Drift is measured
// against the mean at the last stamp, not the previous period's, so
// sub-epsilon movements cannot accumulate into unbounded divergence. Value
// changes (mean or interval count) additionally stamp meanAt, the
// quiescence watermark that ignores distortion-only churn.
func (sig *wireSig) refresh(est *bayes.Estimator, dist int32, eps float64, ver uint64) {
	gridN := int32(est.Intervals())
	mean := est.Mean()
	valueMoved := gridN != sig.gridN || math.Abs(mean-sig.mean) > eps
	if sig.at != 0 && dist == sig.dist && !valueMoved {
		return
	}
	if sig.at == 0 || valueMoved {
		sig.meanAt = ver
	}
	sig.at = ver
	sig.mean = mean
	sig.dist = dist
	sig.gridN = gridN
}

// QuiescentSince reports whether no estimate's *value* — posterior mean
// beyond DeltaEpsilon, or interval count — changed after version base.
// Unlike an empty DeltaSince, distortion-only changes (aging, re-adoption
// of the same estimate over a different route) do not break quiescence:
// they re-ship on deltas but carry no new measurement. Cadence controllers on
// merge paths that exchange whole views (the simulator) use this as
// their stability probe; base 0 or a base from a previous incarnation is
// never quiescent.
func (v *View) QuiescentSince(base uint64) bool {
	if base == 0 || base > v.version {
		return false
	}
	v.refreshSigs()
	for i := range v.procs {
		ps := &v.procs[i]
		if ps.dist != DistInf && ps.sig.meanAt > base {
			return false
		}
	}
	for _, ls := range v.knownLinks() {
		if ls.sig.meanAt > base {
			return false
		}
	}
	return true
}

// MergeSnapshot is Event 1 over a serialized heartbeat (live-runtime
// path). It performs exactly the sequence reconciliation and
// best-estimate selection of MergeFrom.
func (v *View) MergeSnapshot(s *Snapshot) error {
	return v.MergeSnapshotAt(s, 1)
}

// MergeSnapshotAt is MergeSnapshot for a heartbeat declaring a stretched
// cadence (see MergeFromAt): the sender's sequence-gap loss accounting
// and suspicion timeout are scaled by the declared inter-frame gap.
func (v *View) MergeSnapshotAt(s *Snapshot, cadence int) error {
	if err := v.checkSnapshot(s); err != nil {
		return err
	}
	// reconcileLink always books fresh link evidence for the sender's
	// link, so the view changed even when no estimate was adopted.
	v.version++
	v.reconcileLink(s.From, s.Seq, cadence)
	_, err := v.mergeSnapshotEstimates(s)
	return err
}

// MergeSnapshotKnowledgeOnly merges a snapshot's estimates and topology
// without the heartbeat sequence accounting — the wire-path counterpart
// of MergeKnowledgeOnly, used for knowledge piggybacked on data frames
// (data messages carry no heartbeat sequence numbers, so they must not
// feed the link-loss bookkeeping).
func (v *View) MergeSnapshotKnowledgeOnly(s *Snapshot) error {
	if err := v.checkSnapshot(s); err != nil {
		return err
	}
	changed, err := v.mergeSnapshotEstimates(s)
	if changed {
		// Bump only on adoption: piggybacked duplicates carrying nothing
		// new must not invalidate derived plan caches.
		v.version++
	}
	return err
}

// checkSnapshot validates the snapshot header.
func (v *View) checkSnapshot(s *Snapshot) error {
	if s.From < 0 || int(s.From) >= v.n {
		return fmt.Errorf("knowledge: snapshot from unknown process %d", s.From)
	}
	if s.From == v.self {
		return fmt.Errorf("knowledge: refusing to merge own snapshot")
	}
	if v.procs[s.From].departed {
		return fmt.Errorf("knowledge: snapshot from departed process %d", s.From)
	}
	return nil
}

// mergeSnapshotEstimates applies selectBestEstimate over a snapshot's
// process and link records (Algorithm 4 lines 26–33, wire path),
// reporting whether any estimate was adopted or link learned.
func (v *View) mergeSnapshotEstimates(s *Snapshot) (changed bool, err error) {
	depCheck := v.nDeparted > 0 // keep tombstone filtering off the static fast path
	for _, pr := range s.Procs {
		if pr.ID < 0 || int(pr.ID) >= v.n {
			return changed, fmt.Errorf("knowledge: snapshot names unknown process %d", pr.ID)
		}
		mine := &v.procs[pr.ID]
		if depCheck && mine.departed {
			continue // a stale peer cannot resurrect a tombstoned member
		}
		dist := wireDist(pr.Dist)
		if dist >= mine.dist {
			continue
		}
		if !mine.est.Holds(&pr.Est) {
			if err := mine.est.Adopt(pr.Est); err != nil {
				return changed, fmt.Errorf("knowledge: process %d estimate: %w", pr.ID, err)
			}
		}
		mine.dist, mine.supplier, mine.sinceUpdate, mine.dirty = bump(dist), int32(s.From), 0, true
		changed = true
	}

	for _, lr := range s.Links {
		l := topology.NewLink(lr.Link.A, lr.Link.B)
		if l.A < 0 || int(l.B) >= v.n || l.A == l.B {
			return changed, fmt.Errorf("knowledge: snapshot carries invalid link %v", lr.Link)
		}
		if depCheck && (v.Departed(l.A) || v.Departed(l.B)) {
			continue // links to departed members stay forgotten
		}
		// An unknown link's slot is a zero record: adopting into it learns
		// the link, and a malformed state leaves it unknown.
		mine := v.slot(v.interner.Intern(l))
		dist := wireDist(lr.Dist)
		if mine.known && dist >= mine.dist {
			continue
		}
		if !mine.known || !mine.est.Holds(&lr.Est) {
			if err := mine.est.Adopt(lr.Est); err != nil {
				return changed, fmt.Errorf("knowledge: link %v estimate: %w", lr.Link, err)
			}
		}
		mine.known, mine.dist, mine.supplier, mine.sinceUpdate, mine.dirty = true, bump(dist), int32(s.From), 0, true
		changed = true
	}
	return changed, nil
}
