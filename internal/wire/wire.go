// Package wire defines the frame encoding the live runtime puts on a
// transport: heartbeat frames carrying knowledge snapshots (Algorithm 4's
// (Λ_k, C_k) exchange), knowledge-delta frames carrying only the records
// that changed since the version the peer last acknowledged (the
// steady-state heartbeat form; see KnowledgeDelta), and data frames
// carrying a broadcast payload plus the sender's MRT and per-edge
// allocation (Algorithm 1's (m, mrt_j)).
//
// Encoding is a compact hand-rolled binary format (see binary.go): a
// 3-byte versioned header followed by varint-coded integers and byte
// strings. A Bayesian estimator ships as its evidence counts — three
// integers — from which the receiver rebuilds the identical posterior.
//
// The allocation is keyed by child node (AllocByNode) rather than by edge
// index, so the receiver may rebuild the tree in any deterministic order
// without misaligning the counts.
package wire

import (
	"errors"
	"fmt"

	"adaptivecast/internal/bayes"
	"adaptivecast/internal/knowledge"
	"adaptivecast/internal/topology"
)

// FrameKind discriminates frame payloads.
type FrameKind uint8

// Frame kinds. Every kind rides the one wire version. FrameKinds
// enumerates them, so a test can demand of every kind a committed
// FuzzDecode seed, a codec round trip and a dispatch case in the node.
const (
	FrameHeartbeat FrameKind = iota + 1
	FrameData
	FrameKnowledgeDelta
	// FrameJoin announces a membership epoch change that added a process;
	// FrameLeave one that removed a process. Both carry a Membership
	// payload. Receivers flood them so every member converges on the new
	// epoch; the epoch number itself dedups the flood.
	FrameJoin
	FrameLeave
	frameKindEnd // one past the last kind; keep it last
)

// FrameKinds returns every frame kind, in wire order.
func FrameKinds() []FrameKind {
	kinds := make([]FrameKind, 0, frameKindEnd-1)
	for k := FrameHeartbeat; k < frameKindEnd; k++ {
		kinds = append(kinds, k)
	}
	return kinds
}

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
// its next frame to this recipient. 0 and 1 both mean one frame per
// period — the paper's cadence, the one internal/heartbeat sends at —
// and encode alike; for Cadence > 1 the receiver scales its
// expected-arrival accounting (suspicion timeouts and sequence-gap loss
// bookkeeping) by it so a stretched neighbor is neither falsely
// suspected nor over-counted as lossy. A sender may break the promise
// early, which is always safe: an early frame shows a
// smaller-than-declared gap, which books no loss.
//
// Epoch is the sender's membership epoch (see Membership), 0 in a static
// cluster; it lets receivers fence frames from other membership views.
type KnowledgeDelta struct {
	Snap    *knowledge.Snapshot
	Since   uint64
	Ver     uint64
	Ack     uint64
	Cadence uint64
	Epoch   uint64
}

// MaxCadence bounds the declared heartbeat cadence a frame may carry.
// The receiver multiplies its suspicion timeout by the declared cadence,
// so an unbounded value would let a hostile peer suppress its own failure
// detection forever; 256 periods is far beyond any sane stretch cap.
const MaxCadence = 256

// MaxEvidence bounds successes+failures in an estimator record, so that
// count·log(mid) stays a well-conditioned float64.
const MaxEvidence = bayes.MaxEvidence

// MaxAllocation bounds one AllocByNode entry, restating
// optimize.DefaultMaxTotal (the most copies the allocator will plan for a
// whole broadcast, so no honest entry exceeds it). A relay sends an
// entry's worth of copies toward one child, so an unbounded entry would
// let one forged frame make every relay enqueue 2³¹ sends, and a negative
// one would corrupt the relay's sent-versus-attempted accounting.
const MaxAllocation = 1 << 22

// MaxProcs bounds the ID-space size a membership announcement may
// declare, and every process ID and link endpoint a record section
// names. Receivers grow their views to NumProcs — one estimator record
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
	// Epoch is the sender's membership epoch; 0 in a static cluster.
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
// point copies it first. Only a data frame's Piggyback snapshot and a
// membership payload are fresh per call and the caller's to keep. The
// zero value is ready to use; a Scratch is not safe for concurrent use.
type Scratch struct {
	frame Frame
	data  DataMsg
	delta KnowledgeDelta
	snap  knowledge.Snapshot
}

// DecodeBorrow is the package-level DecodeBorrow into s: same parse, same
// checks, and DataMsg.Body aliases b. It recycles the record slices the
// last decode left first (knowledge.Snapshot.Recycle), so a Scratch kept
// in a pool holds no arrays past knowledge.KeepRecords.
func (s *Scratch) DecodeBorrow(b []byte) (*Frame, error) {
	s.snap.Recycle()
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
	return nil
}
