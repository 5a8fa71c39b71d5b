// Package heartbeat is the heartbeat plane of Algorithm 4: once a period
// a process sends each neighbour its knowledge, and a receiver runs
// Event 1 and Algorithm 3 on what arrives. Every runtime of the protocol
// runs this one plane — the live node under its lock, the discrete-event
// twin on virtual time — so both exchange the same frames.
//
// A heartbeat toward neighbour T is a knowledge delta: the records that
// changed since the version of this view T last acknowledged, less the
// ones T is known to hold at no greater distortion (split and sibling
// horizon, knowledge.View.AppendOmitted), or the full snapshot while no
// ack anchors a delta. Every frame echoes back, as its Ack, the version
// of T's view merged here, which is what anchors T's next delta to us.
// With adaptive cadence on, a neighbour whose delta stays empty and
// anchored, that is not suspected and that waits for no ack is sent a
// frame every few periods only (see internal/cadence).
package heartbeat

import (
	"errors"
	"slices"

	"adaptivecast/internal/cadence"
	"adaptivecast/internal/knowledge"
	"adaptivecast/internal/topology"
	"adaptivecast/internal/wire"
)

// ErrSender is returned by Receive for a delta whose snapshot names
// another process than the one it came from: the merge books the
// heartbeat's link evidence on (self, Snap.From) and learns that link if
// it is new, and the ack bookkeeping is keyed by the sender, so a frame
// claiming another sender would credit a link it never crossed and key
// state by an ID nothing has checked.
var ErrSender = errors.New("heartbeat: delta names another sender")

// Plane is one process's heartbeat plane over its knowledge view: the
// ack chain toward and from each neighbour and, with adaptive cadence
// on, a cadence controller per neighbour. It is not safe for concurrent
// use; the live node holds its lock across Cut and Receive.
type Plane struct {
	view *knowledge.View
	max  int // the cadence cap; 0 when adaptive cadence is off
	// seen[j] is the latest version of j's view merged here — echoed
	// back to j as Ack on the next heartbeat. acked[j] is the latest
	// version of *this* view j has acknowledged — the base the next delta
	// to j is cut from; 0 (or a value ahead of the current view, after a
	// restart) forces the full-snapshot fallback. Both are keyed only by
	// senders whose frame named them (see ErrSender).
	seen, acked map[topology.NodeID]uint64
	// cad[j] tracks the heartbeat stretch toward neighbour j; nil when
	// adaptive cadence is off.
	cad map[topology.NodeID]*cadence.State
	// ackDue[j] is set while j's last merged delta carried records that
	// no frame of ours has acked yet: j sits at δ until that ack arrives,
	// so the cadence controller counts j unstable and sends the ack now.
	// Split horizon leaves none of j's own news to echo back, so without
	// it a plane stretched toward j would ack only at its stretched pace.
	// nil when adaptive cadence is off.
	ackDue map[topology.NodeID]bool
}

// New returns the plane of view. cadenceMax caps the adaptive heartbeat
// cadence in periods (at most wire.MaxCadence); values <= 1 keep the
// classic one frame per neighbour per period.
func New(view *knowledge.View, cadenceMax int) *Plane {
	p := &Plane{
		view:  view,
		seen:  make(map[topology.NodeID]uint64),
		acked: make(map[topology.NodeID]uint64),
	}
	if cadenceMax > 1 {
		p.max = min(cadenceMax, wire.MaxCadence)
		p.cad = make(map[topology.NodeID]*cadence.State)
		p.ackDue = make(map[topology.NodeID]bool)
	}
	return p
}

// Cut runs the half of a heartbeat period that reads and writes the
// view, into ws: Events 2 and 3 (View.BeginPeriod), then one outbound
// heartbeat per neighbour — its cut, the records of it the neighbour is
// not sent, and whether it is due this period and at what cadence. The
// frames are encoded afterwards from ws alone (Period.AppendFrame), so a
// caller holding a lock over the view can release it first.
//
// resume holds per-neighbour cadence intervals a previous incarnation
// persisted; each entry is handed to cadence.Resume the first time its
// neighbour is stepped, then deleted. It may be nil.
func (p *Plane) Cut(ws *Period, neighbors []topology.NodeID, resume map[topology.NodeID]int) {
	for _, nb := range neighbors {
		ws.outs = append(ws.outs, Outbound{To: nb, Due: true, base: p.acked[nb], ack: p.seen[nb], declared: 1})
	}
	outs := ws.outs
	if cap(ws.cuts) < len(outs) {
		ws.cuts = make([]knowledge.Snapshot, len(outs))
	}
	ws.cuts = ws.cuts[:len(outs)]
	fullCut := false
	p.view.BeginPeriod()
	ws.ver = p.view.Version()
	for i := range outs {
		o := &outs[i]
		// Suspicion state must be read after BeginPeriod (which is where
		// Event 2 raises suspicions), so a suspicion snaps cadence back to
		// δ within the same period it fires. Suspicion is scoped to the
		// suspect's own link: one dead neighbour must not pin the whole
		// plane at full cadence toward its healthy neighbours — they learn
		// of the suspicion through the ordinary snap-back (the raised
		// suspicion dirties the suspect's record, so the deltas toward
		// everyone go non-empty at δ until the news is acked) and then
		// re-stretch while the suspect's link alone stays at δ.
		o.suspected = p.view.Suspected(o.To)
		// One cut per distinct acked base: in the common case every
		// neighbour acked the same version, so a process of any degree
		// scans the view once per period, not once per neighbour. An
		// earlier neighbour's fallback is reused the same way.
		j := 0
		for j < i && outs[j].base != o.base {
			j++
		}
		if j < i {
			o.snap, o.Since = outs[j].snap, outs[j].Since
		} else if cut := &ws.cuts[i]; p.view.DeltaSinceInto(cut, o.base) {
			o.snap, o.Since = cut, o.base
		} else {
			if !fullCut {
				p.view.SnapshotInto(&ws.full)
				fullCut = true
			}
			o.snap = &ws.full // Since stays 0: full-snapshot fallback
		}
		if o.Since == 0 {
			// A neighbour sent the full snapshot never acked this view or
			// restarted since: what it holds is unknown.
			p.view.Unmask(o.To)
		}
		// The shared cut is receiver-agnostic; the records this neighbour
		// is not sent of it are the ones View.AppendOmitted names
		// (none, for the full snapshot). Neighbours holding a link record
		// at the same distortion all leave it out, so their lists may
		// overlap: room for the whole cut per neighbour keeps each append
		// from growing the list by halves, and a pooled workspace keeps
		// that room from period to period.
		if o.Since > 0 {
			ws.skips = slices.Grow(ws.skips, len(o.snap.Procs)+len(o.snap.Links))
		}
		o.skipFrom = len(ws.skips)
		ws.skips = p.view.AppendOmitted(ws.skips, o.snap, o.To)
		o.skipTo = len(ws.skips)
		o.records = len(o.snap.Procs) + len(o.snap.Links) - (o.skipTo - o.skipFrom)
	}
	if p.cad == nil {
		return
	}
	// The controller sees the neighbourhood state every period —
	// including skipped ones — so a snap-back trigger (non-empty or
	// unanchored delta, suspicion of this neighbour, an ack it waits
	// for) re-enables the δ cadence and sends within the same period it
	// appears.
	for i := range outs {
		o := &outs[i]
		stable := o.Since > 0 && !o.suspected && o.records == 0 && !p.ackDue[o.To]
		if o.declared, o.Due = p.step(o.To, stable, resume); o.Due {
			delete(p.ackDue, o.To)
		}
	}
}

// step advances the cadence controller toward one neighbour by one
// period and decides whether a frame is due now.
func (p *Plane) step(to topology.NodeID, stable bool, resume map[topology.NodeID]int) (declared int, due bool) {
	st := p.cad[to]
	if st == nil {
		if hint := resume[to]; hint > 1 {
			st = cadence.Resume(hint)
			delete(resume, to)
		} else {
			st = cadence.New()
		}
		p.cad[to] = st
	}
	return st.Step(stable, p.max)
}

// Receive merges a delta heartbeat from neighbour from (Event 1, with
// the sequence-gap and suspicion accounting scaled by the cadence the
// frame declares) and advances the ack chain. What is delta-specific is
// when the sender's version may be acknowledged:
//
//   - A full snapshot (Since == 0) proves this view now holds everything
//     the sender had at Ver: overwrite the seen version (overwriting also
//     un-sticks the bookkeeping when the sender restarted with a smaller
//     version counter).
//   - A delta anchored at a base this view has seen (Since <= seen)
//     extends the held prefix to Ver.
//   - A delta anchored past what this view has seen (this process
//     restarted and lost its state while the sender still trusts a
//     pre-crash ack) is merged for whatever knowledge it carries, but NOT
//     acked: the stale ack this plane keeps echoing makes the sender fall
//     back to a full snapshot, which repairs the gap one period later.
//
// A delta naming another sender (ErrSender) or one the view refuses
// changes no bookkeeping.
func (p *Plane) Receive(from topology.NodeID, d *wire.KnowledgeDelta) error {
	if d.Snap.From != from {
		return ErrSender
	}
	if err := p.view.MergeSnapshotAt(d.Snap, int(d.Cadence)); err != nil {
		return err
	}
	if p.ackDue != nil && len(d.Snap.Procs)+len(d.Snap.Links) > 0 {
		p.ackDue[from] = true
	}
	switch {
	case d.Since == 0:
		p.seen[from] = d.Ver
	case d.Since <= p.seen[from]:
		if d.Ver > p.seen[from] {
			p.seen[from] = d.Ver
		}
	}
	p.acked[from] = d.Ack
	return nil
}

// Reset forgets the ack chain and the cadence controllers, as a
// membership change must: with no ack on record the next heartbeat
// toward every neighbour is the full snapshot, and with no version seen
// this plane acks 0 until full snapshots arrive, forcing the fallback in
// the other direction too. Controllers restart at one frame per period,
// which also pushes the news out at once.
func (p *Plane) Reset() {
	clear(p.seen)
	clear(p.acked)
	clear(p.cad)
	clear(p.ackDue)
}

// Acked is the version of this view neighbour to last acknowledged: the
// base of the next delta toward it, 0 when there is none.
func (p *Plane) Acked(to topology.NodeID) uint64 { return p.acked[to] }

// Seen is the version of neighbour from's view last merged here: the Ack
// the next heartbeat toward it carries.
func (p *Plane) Seen(from topology.NodeID) uint64 { return p.seen[from] }

// SetAcked records that neighbour to acknowledged version ver of this
// view, as a delta from it carrying that Ack would, for a caller that
// stages a period without running the exchange before it.
func (p *Plane) SetAcked(to topology.NodeID, ver uint64) { p.acked[to] = ver }

// Peers reports how many entries the ack chain keeps, versions seen and
// acked together: at most two per process that sent a frame naming
// itself.
func (p *Plane) Peers() int { return len(p.seen) + len(p.acked) }

// Interval is the current heartbeat interval toward neighbour to, in
// periods: 1 while it is not stretched or adaptive cadence is off.
func (p *Plane) Interval(to topology.NodeID) int {
	if st := p.cad[to]; st != nil {
		return st.Interval()
	}
	return 1
}

// Cadences calls yield with every controller's current interval and its
// unconsumed resume hint, for a caller that persists them (see
// cadence.State.Hint).
func (p *Plane) Cadences(yield func(to topology.NodeID, interval, hint int)) {
	for to, st := range p.cad {
		yield(to, st.Interval(), st.Hint())
	}
}

// Outbound is one neighbour's heartbeat of a period: where it goes, the
// base of its delta (0 for the full snapshot), and whether it is due
// this period; the rest is what Period.AppendFrame encodes it from.
type Outbound struct {
	To    topology.NodeID
	Since uint64 // the acked base when the frame is a delta, 0 when it is the full snapshot
	Due   bool

	base, ack uint64 // the version of this view the neighbour acked; of its view merged here
	snap      *knowledge.Snapshot
	suspected bool
	declared  int
	// skipFrom:skipTo bounds, in Period.skips, the records of snap it is
	// not sent; records counts those it is.
	skipFrom, skipTo, records int
}

// section is the record section of one distinct cut, encoded once per
// period, and where its records lie, so a neighbour's subset can be
// copied out of it (wire.AppendDeltaFrameSubset).
type section struct {
	snap  *knowledge.Snapshot
	bytes []byte
	index wire.SectionIndex
}

// keepSection bounds the section buffer a reused Period keeps (see
// Reset), as knowledge.KeepRecords bounds its cuts.
const keepSection = 64 << 10

// Period is the scaffolding of one heartbeat period: the outbound list,
// the cuts — cuts[i] is neighbour i's delta when it is the first to ack
// its base, full the fallback — the records each neighbour is not sent,
// in neighbour order, and the encoded sections. The zero value is ready;
// Reset empties one for the next period and keeps its storage.
type Period struct {
	ver   uint64
	outs  []Outbound
	cuts  []knowledge.Snapshot
	full  knowledge.Snapshot
	skips []int
	secs  []section
}

// Outbound lists the period's heartbeats, one per neighbour Cut was
// given, in that order.
func (ws *Period) Outbound() []Outbound { return ws.outs }

// AppendFrame appends to dst the delta frame of the period's i-th
// outbound heartbeat, declaring the given membership epoch. The record
// section of its cut is encoded the first time the period asks, and
// only its subset the neighbour is sent is copied into the frame, so a
// period encodes each distinct cut once. An error — a record of the cut
// outside the wire's bounds — leaves dst unmodified.
func (ws *Period) AppendFrame(dst []byte, i int, epoch uint64) ([]byte, error) {
	o := &ws.outs[i]
	sec, err := ws.section(o.snap)
	if err != nil {
		return dst, err
	}
	return wire.AppendDeltaFrameSubset(dst, &wire.KnowledgeDelta{
		Since:   o.Since,
		Ver:     ws.ver,
		Ack:     o.ack,
		Cadence: uint64(o.declared),
		Epoch:   epoch,
	}, sec.bytes, &sec.index, ws.skips[o.skipFrom:o.skipTo])
}

// section returns the encoded record section of s, encoding it the
// first time the period asks, into storage a past period left when
// there is some.
func (ws *Period) section(s *knowledge.Snapshot) (*section, error) {
	for i := range ws.secs {
		if ws.secs[i].snap == s {
			return &ws.secs[i], nil
		}
	}
	if len(ws.secs) < cap(ws.secs) {
		ws.secs = ws.secs[:len(ws.secs)+1] // reuse the buffer and index a past period left there
	} else {
		ws.secs = append(ws.secs, section{})
	}
	sec := &ws.secs[len(ws.secs)-1]
	b, err := wire.AppendSnapshotSectionIndexed(sec.bytes[:0], s, &sec.index)
	if err != nil {
		ws.secs = ws.secs[:len(ws.secs)-1]
		return nil, err
	}
	sec.snap, sec.bytes = s, b
	return sec, nil
}

// Reset empties the period for reuse, so no estimator state stays
// reachable from it; the slices keep their capacity, and section
// buffers theirs up to keepSection. It always reports true, the
// pool.Pool Reset contract for a value worth keeping.
func (ws *Period) Reset() bool {
	clear(ws.outs)
	for i := range ws.secs {
		sec := &ws.secs[i]
		sec.snap = nil
		if cap(sec.bytes) > keepSection {
			sec.bytes = nil
		}
	}
	ws.outs, ws.skips, ws.secs = ws.outs[:0], ws.skips[:0], ws.secs[:0]
	for i := range ws.cuts {
		ws.cuts[i].Recycle()
	}
	ws.full.Recycle()
	return true
}
