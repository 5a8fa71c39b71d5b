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
// Every neighbour is sent a frame every period, so every frame declares
// the wire's default cadence of 1; a receiver still scales its loss and
// suspicion accounting by whatever cadence a frame declares
// (knowledge.View.MergeSnapshotAt).
package heartbeat

import (
	"errors"
	"slices"

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
// ack chain toward and from each neighbour. It is not safe for
// concurrent use; the live node holds its lock across Cut and Receive.
type Plane struct {
	view *knowledge.View
	// seen[j] is the latest version of j's view merged here — echoed
	// back to j as Ack on the next heartbeat. acked[j] is the latest
	// version of *this* view j has acknowledged — the base the next delta
	// to j is cut from; 0 (or a value ahead of the current view, after a
	// restart) forces the full-snapshot fallback. Both are keyed only by
	// senders whose frame named them (see ErrSender).
	seen, acked map[topology.NodeID]uint64
}

// New returns the plane of view.
func New(view *knowledge.View) *Plane {
	return &Plane{
		view:  view,
		seen:  make(map[topology.NodeID]uint64),
		acked: make(map[topology.NodeID]uint64),
	}
}

// Cut runs the half of a heartbeat period that reads and writes the
// view, into ws: Events 2 and 3 (View.BeginPeriod), then one outbound
// heartbeat per neighbour — its cut and the records of it the neighbour
// is not sent. The frames are encoded afterwards from ws alone
// (Period.AppendFrame), so a caller holding a lock over the view can
// release it first.
func (p *Plane) Cut(ws *Period, neighbors []topology.NodeID) {
	for _, nb := range neighbors {
		ws.outs = append(ws.outs, Outbound{To: nb, base: p.acked[nb], ack: p.seen[nb]})
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
	}
}

// Receive merges a delta heartbeat from neighbour from (Event 1, with
// the sequence-gap and suspicion accounting scaled by the cadence the
// frame declares; a plane's own frames declare 1) and advances the ack
// chain. What is delta-specific is when the sender's version may be
// acknowledged:
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

// Reset forgets the ack chain, as a membership change must: with no ack
// on record the next heartbeat toward every neighbour is the full
// snapshot, and with no version seen this plane acks 0 until full
// snapshots arrive, forcing the fallback in the other direction too.
func (p *Plane) Reset() {
	clear(p.seen)
	clear(p.acked)
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

// Outbound is one neighbour's heartbeat of a period: where it goes and
// the base of its delta (0 for the full snapshot); the rest is what
// Period.AppendFrame encodes it from.
type Outbound struct {
	To    topology.NodeID
	Since uint64 // the acked base when the frame is a delta, 0 when it is the full snapshot

	base, ack uint64 // the version of this view the neighbour acked; of its view merged here
	snap      *knowledge.Snapshot
	// skipFrom:skipTo bounds, in Period.skips, the records of snap it is
	// not sent.
	skipFrom, skipTo int
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
		Since: o.Since,
		Ver:   ws.ver,
		Ack:   o.ack,
		Epoch: epoch,
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
