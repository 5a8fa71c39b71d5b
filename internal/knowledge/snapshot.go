package knowledge

import (
	"fmt"
	"math"
	"slices"

	"adaptivecast/internal/bayes"
	"adaptivecast/internal/topology"
)

// Snapshot is the serializable heartbeat payload: the sender's (Λ_k, C_k)
// plus its heartbeat sequence number, encoded onto the wire by package
// wire.
type Snapshot struct {
	From  topology.NodeID
	Seq   uint64
	Procs []ProcRecord
	Links []LinkRecord
}

// KeepRecords bounds the record slices a reused Snapshot keeps (see
// Recycle): one cut or decode from a cluster far past anything a flat
// roster holds must not pin its arrays in a pool for good.
const KeepRecords = 4096

// Recycle empties s for reuse as the dst of a later cut or decode: it
// zeroes its records, so no estimator state stays reachable from it, and
// keeps the capacity of each record slice up to KeepRecords.
func (s *Snapshot) Recycle() {
	clear(s.Procs)
	clear(s.Links)
	procs, links := s.Procs[:0], s.Links[:0]
	if cap(procs) > KeepRecords {
		procs = nil
	}
	if cap(links) > KeepRecords {
		links = nil
	}
	*s = Snapshot{Procs: procs, Links: links}
}

// ProcRecord carries one process estimate. Processes with infinite
// distortion (never heard of) are omitted from snapshots entirely.
type ProcRecord struct {
	ID   topology.NodeID
	Dist int
	Est  bayes.State
	horizon
}

// LinkRecord carries one link estimate.
type LinkRecord struct {
	Link topology.Link
	Dist int
	Est  bayes.State
	horizon
}

// horizon is what a delta cut notes on a record for View.AppendOmitted:
// the neighbours known to hold it at no greater distortion than the
// cutting view. It is never encoded, and it is zero on every record
// that did not come from a delta cut.
type horizon struct {
	// holder is one plus the neighbour that supplied the record, or that
	// measures it itself (split horizon); 0 when there is none.
	holder int32
	mask   uint16 // the cutting view's mask of the record (see heard)
}

// omits reports whether the record stays out of the heartbeat toward
// the neighbour with holder field h and mask bit bit.
func (r horizon) omits(h int32, bit uint16) bool { return r.holder == h || r.mask&bit != 0 }

// holderOf is a record's holder field for neighbour id; topology.None
// (or any negative ID) is "no holder".
func holderOf(id topology.NodeID) int32 { return int32(max(id, -1)) + 1 }

// AppendOmitted appends to dst, in ascending order, the index of every
// record of s, a cut of v — counting its Procs, then its Links — that
// stays out of the heartbeat toward neighbour to, and returns the
// extended slice. A delta cut leaves out every record the receiver is
// known to hold at no greater distortion, which Algorithm 3's
// selectBestEstimate makes it drop unless its own copy has aged past
// ours since:
//
//   - one it supplied (we adopted its copy, one distortion step below
//     ours), and the link between the cutting view and the receiver,
//     which it measures itself at distortion 0 (split horizon, as in
//     RIP);
//   - one whose last copy it sent us was at no greater distortion than
//     ours (sibling horizon, the record's mask, see heard), for the
//     first maskSlots neighbours of the cutting view.
//
// The rule is the same for process and link records. Records of a full
// snapshot, of a decoded frame or built by hand are never left out.
func (v *View) AppendOmitted(dst []int, s *Snapshot, to topology.NodeID) []int {
	h := holderOf(to)
	if h == 0 {
		return dst
	}
	bit := v.peerBit(to)
	for i := range s.Procs {
		if s.Procs[i].omits(h, bit) {
			dst = append(dst, i)
		}
	}
	for i := range s.Links {
		if s.Links[i].omits(h, bit) {
			dst = append(dst, len(s.Procs)+i)
		}
	}
	return dst
}

// Snapshot cuts the view into a wire-ready payload: one record per known
// estimate, each an O(1) bayes.State of two counts, so the payload stays
// valid however the view moves on.
// It also refreshes the wire signatures (see DeltaSince): a full snapshot
// ships every record, so it baselines them all — the next delta cut
// against an ack of this version re-ships only what changes afterwards.
func (v *View) Snapshot() *Snapshot {
	s := new(Snapshot)
	v.SnapshotInto(s)
	return s
}

// SnapshotInto is Snapshot into dst: it overwrites dst whole and reuses
// the capacity of its record slices, so a caller that keeps dst between
// periods cuts a full snapshot without allocating.
func (v *View) SnapshotInto(dst *Snapshot) {
	v.refreshSigs()
	*dst = Snapshot{From: v.self, Seq: v.selfSeq,
		Procs: grow(dst.Procs, len(v.procs)), Links: grow(dst.Links, v.interner.Len())}
	for i := range v.procs {
		ps := &v.procs[i]
		if ps.dist == DistInf || ps.departed {
			continue
		}
		dst.Procs = append(dst.Procs, ProcRecord{
			ID:   topology.NodeID(i),
			Dist: int(ps.dist),
			Est:  ps.est.State(),
		})
	}
	for idx, ls := range v.knownLinks() {
		dst.Links = append(dst.Links, LinkRecord{
			Link: v.interner.Link(idx),
			Dist: int(ls.dist),
			Est:  ls.est.State(),
		})
	}
}

// grow returns s emptied, with room for at least n records; never nil,
// so a cut reads the same whether or not its slices were reused.
func grow[E any](s []E, n int) []E {
	if s == nil || cap(s) < n {
		return make([]E, 0, n)
	}
	return s[:0]
}

// DeltaSince returns a partial snapshot holding only the records whose
// wire signature changed after version base: the receiver-agnostic case
// of DeltaTo (to = topology.None), which leaves no record out. Each
// record carries its holder and mask, so View.AppendOmitted can still
// tell which of them a given neighbour's heartbeat leaves out.
func (v *View) DeltaSince(base uint64) (s *Snapshot, ok bool) {
	return v.DeltaTo(base, topology.None)
}

// DeltaTo returns the heartbeat payload toward neighbour to: the records
// whose wire signature changed after version base — the version that
// neighbour last acked — less those View.AppendOmitted names toward
// it, in the order of DeltaSince.
//
// A record re-ships once its posterior mean drifts past
// Params.DeltaEpsilon, so a delta empties only on quiet links: on a
// lossy one a link or process posterior keeps moving by
// about 1/n on a loss and λ/n on a success after n observations, and
// re-ships until n reaches about 1/DeltaEpsilon. Receiver-agnostic
// deltas re-shipped 85 % of the view per period on a 32-node lossy
// fabric and 99 % at 128 nodes; leaving out what the receiver supplied
// (split horizon) removes the share that only echoes back, and leaving
// out the process and link records it last sent at no greater
// distortion (sibling horizon) the share it would reject.
//
// ok is false when base cannot anchor a delta — zero (the peer never
// acked anything) or ahead of the current version (the peer acked a
// previous incarnation of this view) — and the caller must fall back to a
// full Snapshot, which ships every record to every receiver. Deltas are
// cumulative against the acked base, so a lost delta is repaired by the
// next one without any retransmission protocol: the records it carried
// still satisfy sig.at > base until the peer acks past them.
//
// Correctness invariant (induction over acked versions): a peer that
// acked version V holds every record signature stamped at or before V
// within DeltaEpsilon, or holds that record at a distortion no greater
// than ours. Base case: the peer's first merge is a full snapshot, and
// whoever sends one calls Unmask, so no mask bit the peer earned before
// it (in an earlier incarnation) outlives it. Step: the frame cut at
// version W against acked base V carries exactly the records stamped in
// (V, W] that AppendOmitted does not name toward the peer, and the peer
// holds each named one at no greater distortion than ours: it supplied
// our copy, it measures the link itself, or it last sent us that
// process or link record at no greater distortion. A record whose
// supplier moves to another neighbour with a new stamp ships to the old
// supplier on the next cut, and an adoption that lowers our distortion
// leaves the mask holding the supplier's bit only. Copies only rise in
// distortion by aging, which ships nothing, so two adoptions are given
// up: the peer taking back its own knowledge after its copy aged past
// ours, and a masked peer taking ours after its copy aged past it —
// until the mask's expiry, at most LinkAgeTimeout periods later, ships
// the next stamp to it. Process records age every InitialTimeout quiet
// periods (scaled by the supplier's cadence) against LinkAgeTimeout for
// links, so the second case is the more frequent for them: a mask can
// hold a crash's suspicion back from a neighbour for up to
// LinkAgeTimeout periods.
//
// The invariant holds when the peer merges V, not when we read its ack of
// V: the peer cuts that ack after its own BeginPeriod, which may have
// booked Event 2 for a heartbeat of ours it lost and aged its copy of our
// process record past ours. forgive undoes that on our next frame.
func (v *View) DeltaTo(base uint64, to topology.NodeID) (s *Snapshot, ok bool) {
	if !v.anchors(base) {
		return nil, false
	}
	s = new(Snapshot)
	v.DeltaSinceInto(s, base)
	if to != topology.None {
		v.omit(s, to)
	}
	return s, true
}

// DeltaSinceInto is DeltaSince into dst: it overwrites dst whole when the
// cut is anchored (dst is untouched when it is not) and reuses the
// capacity of its record slices. The caller owns dst, so cuts made at
// the same time — Tick is not serialized against itself — each need
// their own.
func (v *View) DeltaSinceInto(dst *Snapshot, base uint64) (ok bool) {
	if !v.anchors(base) {
		return false
	}
	v.refreshSigs()
	// Size the cut before filling it: growing two slices from nil costs
	// more than a second scan, and a dst kept from an earlier cut is
	// usually large enough already.
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
	*dst = Snapshot{From: v.self, Seq: v.selfSeq, Procs: grow(dst.Procs, nProcs), Links: grow(dst.Links, nLinks)}
	for i := range v.procs {
		if ps := &v.procs[i]; shipsProc(ps) {
			dst.Procs = append(dst.Procs, ProcRecord{
				ID:      topology.NodeID(i),
				Dist:    int(ps.dist),
				Est:     ps.est.State(),
				horizon: horizon{holderOf(topology.NodeID(ps.supplier)), ps.mask},
			})
		}
	}
	for idx, ls := range v.knownLinks() {
		if ls.sig.at > base {
			l := v.interner.Link(idx)
			dst.Links = append(dst.Links, LinkRecord{
				Link:    l,
				Dist:    int(ls.dist),
				Est:     ls.est.State(),
				horizon: horizon{v.linkHolder(l, ls), ls.mask},
			})
		}
	}
	return true
}

// linkHolder is the holder of a link record: the far end of a link
// incident to this view, which measures the link itself, or else the
// neighbour that supplied the estimate.
func (v *View) linkHolder(l topology.Link, ls *linkState) int32 {
	switch v.self {
	case l.A:
		return holderOf(l.B)
	case l.B:
		return holderOf(l.A)
	}
	return holderOf(topology.NodeID(ls.supplier))
}

// omit removes from s, in place and in order, the records AppendOmitted
// names toward to.
func (v *View) omit(s *Snapshot, to topology.NodeID) {
	skips := v.AppendOmitted(nil, s, to)
	n := len(s.Procs)
	k, _ := slices.BinarySearch(skips, n)
	s.Procs = without(s.Procs, skips[:k], 0)
	s.Links = without(s.Links, skips[k:], n)
}

// without removes from recs, in place and in order, the records whose
// index plus off is in the ascending list skips, and zeroes the tail it
// frees.
func without[E any](recs []E, skips []int, off int) []E {
	kept := recs[:0]
	for i, r := range recs {
		if len(skips) > 0 && skips[0] == off+i {
			skips = skips[1:]
			continue
		}
		kept = append(kept, r)
	}
	clear(recs[len(kept):])
	return kept
}

// anchors reports whether a delta can be cut against base: the peer acked
// something (base > 0) of this incarnation of the view (base ≤ version).
func (v *View) anchors(base uint64) bool { return base != 0 && base <= v.version }

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
// sub-epsilon movements cannot accumulate into unbounded divergence.
func (sig *wireSig) refresh(est *bayes.Estimator, dist int32, eps float64, ver uint64) {
	mean := est.Mean()
	if sig.at != 0 && dist == sig.dist && math.Abs(mean-sig.mean) <= eps {
		return
	}
	sig.at = ver
	sig.mean = mean
	sig.dist = dist
}

// MergeSnapshot is Event 1 over a heartbeat: the sequence-gap
// accounting of the link to the sender, then Algorithm 3's best-estimate
// selection over the snapshot's records.
func (v *View) MergeSnapshot(s *Snapshot) error {
	return v.MergeSnapshotAt(s, 1)
}

// MergeSnapshotAt is MergeSnapshot for a heartbeat declaring a stretched
// cadence: the sender promises its next frame in `cadence` heartbeat
// periods, and this view scales its expected-arrival accounting for that
// neighbor — sequence-gap losses and the Event 2 suspicion timeout — by
// it. Cadence 1 is exactly MergeSnapshot.
func (v *View) MergeSnapshotAt(s *Snapshot, cadence int) error {
	if err := v.checkSnapshot(s); err != nil {
		return err
	}
	// reconcileLink always books fresh link evidence for the sender's
	// link, so the view changed even when no estimate was adopted.
	v.version++
	v.reconcileLink(s.From, s.Seq, cadence)
	_, err := v.mergeSnapshotEstimates(s)
	v.forgive(s.From)
	return err
}

// forgive undoes the Event 2 evidence booked on neighbour j's record
// since this view last adopted it — the failures observed while j was
// silent and the distortion steps that came with them — once a
// heartbeat of j's has been merged without re-adopting it. In the paper
// every heartbeat carries j's estimate of itself, at distortion 0, and
// Algorithm 3 adopts it over whatever suspicion left here; a delta
// leaves that record out while it stays within DeltaEpsilon of the copy
// adopted here, so undoing the suspicion's evidence is the adoption the
// full heartbeat would have made. Without it every suspicion of a live
// neighbour stays in its record, and ships on to every view that takes
// the record from here.
func (v *View) forgive(j topology.NodeID) {
	ps := &v.procs[j]
	if ps.suspicions == 0 {
		return
	}
	st := ps.est.State()
	st.Fail = max(st.Fail-int(ps.suspicions), 0)
	_ = ps.est.Adopt(st) // fewer failures than a well-formed state holds is well-formed
	if ps.dist != DistInf {
		ps.dist = max(ps.dist-ps.suspicions, 0)
	}
	ps.suspicions, ps.dirty = 0, true
}

// MergeSnapshotKnowledgeOnly merges a snapshot's estimates and topology
// without the heartbeat sequence accounting. This is the paper's
// piggybacking remark (Section 4.1): knowledge can ride on application
// data messages, which spreads estimates faster, but data messages carry
// no heartbeat sequence numbers, so they must not feed the link-loss
// bookkeeping — receipts of data are a biased sample (losses are
// unobservable without sequencing).
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

// Verdicts counts Algorithm 3's verdicts on the received records of one
// kind: adopted (unknown here, or sent at a distortion below ours), or
// rejected, sent at our distortion or above it. A tombstoned record,
// skipped unjudged, counts in none.
type Verdicts struct {
	Adopted       int
	RejectedEqual int
	RejectedAbove int
}

// book counts the verdict adopt on a record sent at distortion d, ours
// being dist, and returns adopt.
func (c *Verdicts) book(adopt bool, dist, d int32) bool {
	switch {
	case adopt:
		c.Adopted++
	case d == dist:
		c.RejectedEqual++
	default:
		c.RejectedAbove++
	}
	return adopt
}

// Verdicts returns the verdicts on process and link records that
// MergeSnapshot and its variants booked since the view was made.
func (v *View) Verdicts() (procs, links Verdicts) { return v.verdicts[0], v.verdicts[1] }

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
// reporting whether any estimate was adopted or link learned, and books
// each verdict in v.verdicts.
func (v *View) mergeSnapshotEstimates(s *Snapshot) (changed bool, err error) {
	depCheck := v.nDeparted > 0 // keep tombstone filtering off the static fast path
	bit := v.peerBit(s.From)
	for _, pr := range s.Procs {
		if pr.ID < 0 || int(pr.ID) >= v.n {
			return changed, fmt.Errorf("knowledge: snapshot names unknown process %d", pr.ID)
		}
		mine := &v.procs[pr.ID]
		if depCheck && mine.departed {
			continue // a stale peer cannot resurrect a tombstoned member
		}
		dist := wireDist(pr.Dist)
		if !v.verdicts[0].book(heard(&mine.mask, true, mine.dist, dist, bit), mine.dist, dist) {
			continue
		}
		if !mine.est.Holds(&pr.Est) {
			if err := mine.est.Adopt(pr.Est); err != nil {
				return changed, fmt.Errorf("knowledge: process %d estimate: %w", pr.ID, err)
			}
		}
		mine.dist, mine.supplier, mine.sinceUpdate, mine.dirty, mine.suspicions = bump(dist), int32(s.From), 0, true, 0
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
		if !v.verdicts[1].book(heard(&mine.mask, mine.known, mine.dist, dist, bit), mine.dist, dist) {
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
