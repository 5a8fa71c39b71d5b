// Package wire defines the frame encoding the live runtime puts on a
// transport: heartbeat frames carrying knowledge snapshots (Algorithm 4's
// (Λ_k, C_k) exchange), knowledge-delta frames carrying only the records
// that changed since the version the peer last acknowledged (the
// steady-state heartbeat form; see KnowledgeDelta), and data frames
// carrying a broadcast payload plus the sender's MRT and per-edge
// allocation (Algorithm 1's (m, mrt_j)).
//
// Encoding is a compact hand-rolled binary format (see binary.go): a
// 3-byte versioned header followed by varint-coded integers and raw IEEE
// 754 floats. Inside a version-5 heartbeat or delta frame, a Bayesian
// estimator that never left the uniform prior ships as its evidence
// counts — three integers — instead of its belief vector.
//
// The allocation is keyed by child node (AllocByNode) rather than by edge
// index, so the receiver may rebuild the tree in any deterministic order
// without misaligning the counts.
package wire

import (
	"errors"
	"fmt"

	"adaptivecast/internal/knowledge"
	"adaptivecast/internal/topology"
)

// FrameKind discriminates frame payloads.
type FrameKind uint8

// Frame kinds. The wirekind analyzer (run by cmd/adaptivelint in CI)
// reads the annotations: each constant declares the wire versions it may
// ride, every declared kind×version pair must be witnessed by a
// committed FuzzDecode corpus seed, and every switch over a FrameKind
// must stay exhaustive — so a new kind cannot ship without fuzz coverage
// and codec/dispatch cases.
//
//adaptivelint:wirecorpus dir=testdata/fuzz/FuzzDecode magic=0xAC
const (
	FrameHeartbeat      FrameKind = iota + 1 //adaptivelint:wirekind versions=1,5
	FrameData                                //adaptivelint:wirekind versions=1,3
	FrameKnowledgeDelta                      //adaptivelint:wirekind versions=1,2,3,5
	// FrameJoin announces a membership epoch change that added a process;
	// FrameLeave one that removed a process. Both carry a Membership
	// payload and encode as wire version 3. Receivers flood them so every
	// member converges on the new epoch; the epoch number itself dedups
	// the flood.
	FrameJoin  //adaptivelint:wirekind versions=3
	FrameLeave //adaptivelint:wirekind versions=3
)

// Membership is the payload of FrameJoin and FrameLeave: a complete
// description of the process set as of Epoch, not just the delta — so a
// node that missed intermediate epochs (lossy links, downtime) catches up
// from any single announcement.
//
// Node is the subject of the change (the joiner or the leaver). NumProcs
// is the ID-space size |Π| after the change (IDs are dense and never
// reused; bounded by MaxProcs so a forged frame cannot drive unbounded
// view growth). Departed lists every tombstoned process as of Epoch, the
// leaver included. Neighbors, on join frames, lists the joiner's direct
// links so receivers that are named can learn their new link before the
// first heartbeat crosses it; it is empty on leave frames.
//
// Membership frames carry the same trust as every other frame — the
// protocol has no authentication layer, so a peer that can inject frames
// can already forge estimates and data; Epoch in particular is adopted
// as announced.
type Membership struct {
	Node      topology.NodeID
	Epoch     uint64
	NumProcs  int
	Departed  []topology.NodeID
	Neighbors []topology.NodeID
}

// KnowledgeDelta is the delta-heartbeat payload: a partial knowledge
// snapshot carrying only the records that changed since the sender-view
// version the recipient last acknowledged, plus the version bookkeeping
// that drives the ack chain. Snap.From and Snap.Seq identify the sender
// and its heartbeat sequence exactly as on a full heartbeat, so delta
// frames feed the same sequence-gap loss accounting.
//
// Since is the sender-view version the record set is relative to; 0 means
// the record set is a full snapshot (the fallback when the recipient's
// acked version is unknown or predates the sender's current incarnation).
// Ver is the sender's view version when the delta was cut — the recipient
// records it and echoes it back as Ack on its own next frame. Ack is the
// latest version of the *recipient's* view the sender has merged, closing
// the loop: each side learns what the other holds purely from the
// periodic heartbeat exchange, with no extra ack messages.
//
// Cadence declares, in heartbeat periods, the gap the sender plans until
// its next frame to this recipient (the adaptive-cadence stretch; see
// the node's cadence controller). 0 and 1 both mean one frame per period
// — the classic cadence — and encode as a version-1 frame; Cadence > 1
// rides a version-2 frame, and the receiver scales its expected-arrival
// accounting (suspicion timeouts and sequence-gap loss bookkeeping) by it
// so a stretched neighbor is neither falsely suspected nor over-counted
// as lossy. A sender may break the promise early (snap back on a view
// change), which is always safe: an early frame shows a
// smaller-than-declared gap, which books no loss.
//
// Epoch is the sender's membership epoch (see Membership). 0 — the
// static-cluster case — needs no field (wire version 1 or 2); a positive
// epoch rides a version-3 frame and lets receivers fence frames from
// other membership views.
type KnowledgeDelta struct {
	Snap    *knowledge.Snapshot
	Since   uint64
	Ver     uint64
	Ack     uint64
	Cadence uint64
	Epoch   uint64
	// Caps is the sender's highest supported wire version. 0 encodes the
	// oldest header that fits (version 1, 2 or 3); CapsCounts or more
	// rides a version-5 frame, whose record section ships evidence counts.
	// Nothing negotiates on it today: it is validated and carried as the
	// field a future version would negotiate from.
	Caps uint64
}

// MaxCadence bounds the declared heartbeat cadence a frame may carry.
// The receiver multiplies its suspicion timeout by the declared cadence,
// so an unbounded value would let a hostile peer suppress its own failure
// detection forever; 256 periods is far beyond any sane stretch cap.
const MaxCadence = 256

// CapsCounts is the Caps value a node puts on its version-5 frames, the
// evidence-count estimator layout, and the lowest nonzero Caps a frame
// may carry.
const CapsCounts = 5

// MaxIntervals bounds the interval count U an evidence-count estimator
// record may declare. The raw float layout bounds U by the bytes left in the
// frame; a count record is ~5 bytes whatever it declares, and U sizes the
// grid the receiver builds. 4096 is 40× the paper's precision.
const MaxIntervals = 1 << 12

// MaxEvidence bounds successes+failures in an evidence-count record, so
// that count·log(mid) stays a well-conditioned float64: 2^40 events is a
// heartbeat per millisecond for 35 years.
const MaxEvidence = 1 << 40

// MaxAllocation bounds one AllocByNode entry, restating
// optimize.DefaultMaxTotal (the most copies the allocator will plan for a
// whole broadcast, so no honest entry exceeds it). A relay sends an
// entry's worth of copies toward one child, so an unbounded entry would
// let one forged frame make every relay enqueue 2³¹ sends, and a negative
// one would corrupt the relay's sent-versus-attempted accounting.
const MaxAllocation = 1 << 22

// MaxCaps bounds the capability value a frame may carry. Caps is a
// version number, not a bitmask; 255 leaves far more headroom than the
// format will ever use while keeping hostile values trivially rejectable.
const MaxCaps = 255

// MaxProcs bounds the ID-space size a membership announcement may
// declare. Receivers grow their views to NumProcs — one estimator record
// per process — so an unbounded value would let one forged ~20-byte
// frame drive a multi-gigabyte allocation; 65536 processes is far beyond
// any deployment this runtime targets while keeping the worst-case grow
// in the tens of megabytes.
const MaxProcs = 1 << 16

// DataMsg is one reliable-broadcast data message.
type DataMsg struct {
	// Origin and Seq identify the broadcast (dedup key). Seq starts at 1;
	// the zero value is reserved so receivers can use contiguous-sequence
	// watermarks for dedup compaction.
	Origin topology.NodeID
	Seq    uint64
	// Root and Parents carry the sender's MRT; an empty Parents means the
	// message was flooded (adaptive warm-up) and receivers re-flood.
	Root    topology.NodeID
	Parents []topology.NodeID
	// AllocByNode[v] is the number of copies to push over the tree edge
	// leading to v (0 for the root and for flooded messages).
	AllocByNode []int32
	// Body is the application payload.
	Body []byte
	// Piggyback optionally carries the immediate sender's knowledge
	// snapshot (paper Section 4.1: estimates can ride on application
	// traffic, saving heartbeat bandwidth). Forwarders replace it with
	// their own snapshot so distortion accounting matches hop-by-hop
	// propagation.
	Piggyback *knowledge.Snapshot
	// Epoch is the sender's membership epoch; 0 (static cluster) encodes
	// as a version-1 frame, which carries none.
	Epoch uint64
}

// Frame is the unit put on a transport.
type Frame struct {
	Kind      FrameKind
	Heartbeat *knowledge.Snapshot
	Data      *DataMsg
	Delta     *KnowledgeDelta
	// Member carries the FrameJoin / FrameLeave payload.
	Member *Membership
	// Caps is KnowledgeDelta.Caps for a full heartbeat frame (a delta
	// carries its own on its payload).
	Caps uint64
}

// Encode serializes a frame in the binary wire format.
func Encode(f *Frame) ([]byte, error) {
	if err := validate(f); err != nil {
		return nil, err
	}
	return encodeBinary(f)
}

// Decode parses a frame into fresh storage. Malformed input returns an
// error, never panics. Variable-length byte fields (the data body) are
// copied out of b, so the caller may reuse the buffer immediately and keep
// the frame for as long as it likes.
func Decode(b []byte) (*Frame, error) {
	return new(Scratch).decode(b, false)
}

// DecodeBorrow is Decode without the body copy: the returned frame's
// DataMsg.Body aliases b, everything else is fresh storage the caller
// owns. The caller must not recycle b while the frame — or anything the
// body was handed to, like an application Delivery — is live.
func DecodeBorrow(b []byte) (*Frame, error) {
	return new(Scratch).decode(b, true)
}

// Scratch is caller-owned decode storage for the receive path, where the
// m[j] copies of every broadcast make data frames the bulk of what is
// decoded and three quarters of them are dropped as duplicates right
// after, and where every heartbeat is merged into the view and dropped.
// Everything its DecodeBorrow returns lives in the Scratch and is
// overwritten by its next decode — the Frame, a data frame's DataMsg with
// its Parents and AllocByNode, a heartbeat's Snapshot or KnowledgeDelta
// with their record slices — so a caller that keeps any of it past that
// point copies it first. A heartbeat's records live in the Scratch; only
// per-estimator vectors are the caller's to keep: the float vectors inside
// a record's estimator state are fresh per call (a view that adopts the
// record keeps them as the estimator's prior), as are a data frame's
// Piggyback snapshot and a membership payload. The zero value is ready to
// use; a Scratch is not safe for concurrent use.
type Scratch struct {
	frame Frame
	data  DataMsg
	delta KnowledgeDelta
	snap  knowledge.Snapshot
}

// keepRecords bounds the record slices a Scratch keeps between decodes:
// one full heartbeat from a cluster far past anything a flat roster holds
// must not pin its arrays in a pool for good.
const keepRecords = 4096

// DecodeBorrow is the package-level DecodeBorrow into s: same parse, same
// checks, and DataMsg.Body aliases b.
func (s *Scratch) DecodeBorrow(b []byte) (*Frame, error) {
	if cap(s.snap.Procs) > keepRecords {
		s.snap.Procs = nil
	}
	if cap(s.snap.Links) > keepRecords {
		s.snap.Links = nil
	}
	return s.decode(b, true)
}

// decode is the one decode path: parse b into s, then validate.
func (s *Scratch) decode(b []byte, borrow bool) (*Frame, error) {
	if err := decodeBinary(b, s, borrow); err != nil {
		return nil, err
	}
	if err := validate(&s.frame); err != nil {
		return nil, err
	}
	return &s.frame, nil
}

// validate enforces the kind/payload pairing in both directions, so a
// malformed peer cannot feed nil payloads into the node.
func validate(f *Frame) error {
	if f == nil {
		return errors.New("wire: nil frame")
	}
	if f.Caps != 0 {
		if f.Kind != FrameHeartbeat {
			return errors.New("wire: frame-level caps on a non-heartbeat frame")
		}
		if err := checkCaps(f.Caps); err != nil {
			return err
		}
	}
	switch f.Kind {
	case FrameHeartbeat:
		if f.Heartbeat == nil || f.Data != nil || f.Delta != nil || f.Member != nil {
			return errors.New("wire: heartbeat frame payload mismatch")
		}
	case FrameData:
		if f.Data == nil || f.Heartbeat != nil || f.Delta != nil || f.Member != nil {
			return errors.New("wire: data frame payload mismatch")
		}
		if f.Data.Seq == 0 {
			return errors.New("wire: data frame sequence must be >= 1")
		}
		if len(f.Data.Parents) > 0 && len(f.Data.AllocByNode) != len(f.Data.Parents) {
			return fmt.Errorf("wire: allocation covers %d nodes, tree has %d",
				len(f.Data.AllocByNode), len(f.Data.Parents))
		}
		for v, a := range f.Data.AllocByNode {
			if a < 0 || a > MaxAllocation {
				return fmt.Errorf("wire: allocation %d for node %d outside [0,%d]", a, v, MaxAllocation)
			}
		}
	case FrameKnowledgeDelta:
		if f.Delta == nil || f.Delta.Snap == nil || f.Heartbeat != nil || f.Data != nil || f.Member != nil {
			return errors.New("wire: knowledge-delta frame payload mismatch")
		}
		return checkDeltaHeader(f.Delta)
	case FrameJoin, FrameLeave:
		m := f.Member
		if m == nil || f.Heartbeat != nil || f.Data != nil || f.Delta != nil {
			return errors.New("wire: membership frame payload mismatch")
		}
		if m.Epoch == 0 {
			return errors.New("wire: membership frame at epoch 0")
		}
		if m.NumProcs > MaxProcs {
			return fmt.Errorf("wire: membership declares %d processes, bound is %d", m.NumProcs, MaxProcs)
		}
		if m.Node < 0 || int(m.Node) >= m.NumProcs {
			return fmt.Errorf("wire: membership subject %d outside [0,%d)", m.Node, m.NumProcs)
		}
		for _, d := range m.Departed {
			if d < 0 || int(d) >= m.NumProcs {
				return fmt.Errorf("wire: departed process %d outside [0,%d)", d, m.NumProcs)
			}
			if f.Kind == FrameJoin && d == m.Node {
				return errors.New("wire: join frame tombstones its own subject")
			}
		}
		if f.Kind == FrameLeave && len(m.Neighbors) != 0 {
			return errors.New("wire: leave frame carries joiner links")
		}
		for _, nb := range m.Neighbors {
			if nb < 0 || int(nb) >= m.NumProcs || nb == m.Node {
				return fmt.Errorf("wire: joiner link to invalid process %d", nb)
			}
		}
	default:
		return fmt.Errorf("wire: unknown frame kind %d", f.Kind)
	}
	return nil
}

// checkDeltaHeader validates a delta's version bookkeeping, everything
// but its record section: Encode and the shared-section fast path
// (AppendDeltaFrame) both apply it.
func checkDeltaHeader(d *KnowledgeDelta) error {
	if d.Since > d.Ver {
		return fmt.Errorf("wire: delta base %d ahead of its version %d", d.Since, d.Ver)
	}
	if d.Cadence > MaxCadence {
		return fmt.Errorf("wire: cadence %d exceeds the %d-period bound", d.Cadence, MaxCadence)
	}
	if d.Caps != 0 {
		return checkCaps(d.Caps)
	}
	return nil
}

// checkCaps bounds a nonzero Caps value.
func checkCaps(c uint64) error {
	if c < CapsCounts || c > MaxCaps {
		return fmt.Errorf("wire: caps %d outside [%d,%d]", c, CapsCounts, MaxCaps)
	}
	return nil
}
