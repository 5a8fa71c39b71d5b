package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"adaptivecast/internal/bayes"
	"adaptivecast/internal/knowledge"
	"adaptivecast/internal/topology"
)

// Binary framing (see the README "Wire format" section):
//
//	[0] magic 0xAC
//	[1] version (7)
//	[2] kind (FrameHeartbeat | FrameData | FrameKnowledgeDelta | FrameJoin | FrameLeave)
//	payload…
//
// Every kind rides the one version, and the decoder refuses any other:
// versions 1–3, whose shapes left a cadence of 1 and an epoch of 0 out
// and repeated a layout flag and U in every record, the retired 4 and
// 5, and 6, whose sections declared U in their head and let a record
// flag a U of its own. A delta payload is {Since, Ver, Ack, Cadence,
// Epoch} and its record section; a data payload ends in its Epoch.
//
// Integers are varints: zigzag for the IDs and allocations of a data
// payload and a membership payload (a parent vector holds the None
// sentinel), unsigned for everything else. Byte strings are
// length-prefixed. A record section — a heartbeat, a delta's records, a
// data frame's piggyback — is
//
//	from, seq, #procs, #links, records…
//	process record: id,   dist, successes, failures
//	link record:    a, b, dist, successes, failures
//
// A Bayesian estimator is a pure function of its evidence counts: U is
// the paper's constant (bayes.Intervals) and never rides the wire. No
// record is coded against another, so any subset of a section's records,
// under the same head, is a section too (appendSectionSubset).

const (
	magic      = 0xAC
	version    = 7
	headerSize = 3
)

// appendUvarint, appendVarint etc. build on the stdlib append helpers; a
// thin reader with a sticky error handles the inbound direction so the
// decoder reads straight-line without per-field error plumbing.

type reader struct {
	b      []byte
	off    int
	borrow bool // byte fields alias b instead of copying (DecodeBorrow)
	err    error
}

func (r *reader) fail(format string, args ...interface{}) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: "+format, args...)
	}
}

func (r *reader) remaining() int { return len(r.b) - r.off }

func (r *reader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.fail("truncated frame")
		return 0
	}
	c := r.b[r.off]
	r.off++
	return c
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *reader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// count reads an element count and bounds it by the bytes still in the
// frame (every element takes at least one byte), so a hostile length
// prefix cannot drive a giant allocation.
func (r *reader) count(what string) int { return r.countOf(what, 1, 0) }

// countOf is count for elements of at least minSize encoded bytes each,
// in the bytes left past the reserved ones earlier counts claimed: the
// count sizes an array of decoded elements, which for a knowledge record
// is some ten times its shortest encoding.
func (r *reader) countOf(what string, minSize, reserved int) int {
	v := r.uvarint()
	if r.err != nil {
		return 0
	}
	if v > uint64(max(r.remaining()-reserved, 0)/minSize) {
		r.fail("%s count %d exceeds frame", what, v)
		return 0
	}
	return int(v)
}

func (r *reader) bytes(what string) []byte {
	n := r.count(what)
	if r.err != nil || n == 0 {
		return nil
	}
	if r.borrow {
		out := r.b[r.off : r.off+n : r.off+n]
		r.off += n
		return out
	}
	out := make([]byte, n)
	copy(out, r.b[r.off:r.off+n])
	r.off += n
	return out
}

// nodeID decodes a zigzag-encoded topology.NodeID (which may legitimately
// be the None sentinel inside parent vectors).
func (r *reader) nodeID() topology.NodeID { return topology.NodeID(r.varint()) }

// id decodes a record section's unsigned process ID, below MaxProcs.
func (r *reader) id() topology.NodeID {
	v := r.uvarint() // 0 once r has failed
	if err := checkID(v); err != nil {
		r.err = err
		return 0
	}
	return topology.NodeID(v)
}

// checkID holds a process ID or link endpoint of a record section below
// MaxProcs.
func checkID(id uint64) error {
	if id >= MaxProcs {
		return fmt.Errorf("wire: process %d outside [0,%d)", id, MaxProcs)
	}
	return nil
}

// checkRecord holds one record to the bounds every receiver enforces:
// its ID, or a link's endpoints a and b (b is 0 for a process record),
// below MaxProcs; its distortion in [0, DistInf]; and its evidence counts
// within MaxEvidence together. The decoder applies it to every record it
// reads and the section encoder to every record it writes, so no sender
// emits a record its receivers refuse. A record is a handful of bytes
// whatever it declares, so nothing about the frame bounds it: the
// distortion is bounded before it becomes an int that could wrap to a
// low, trusted one, and the counts before one can overflow
// float64(n)·log.
func checkRecord(a, b, dist, succ, fail uint64) error {
	if err := checkID(max(a, b)); err != nil {
		return err
	}
	switch {
	case dist > knowledge.DistInf:
		return fmt.Errorf("wire: distortion %d exceeds %d", dist, knowledge.DistInf)
	case succ > MaxEvidence || fail > MaxEvidence || succ+fail > MaxEvidence:
		return fmt.Errorf("wire: evidence counts (%d, %d) exceed the %d bound", succ, fail, MaxEvidence)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Knowledge snapshots
// ---------------------------------------------------------------------------

// snapshotSize bounds the encoded size of a section: four head varints
// and at most five per record (a link's endpoints, distortion and
// counts).
func snapshotSize(s *knowledge.Snapshot) int {
	return (4 + 5*(len(s.Procs)+len(s.Links))) * binary.MaxVarintLen64
}

// appendSnapshot writes a snapshot's record section.
func appendSnapshot(b []byte, s *knowledge.Snapshot) ([]byte, error) {
	return appendSection(b, s, nil)
}

// appendSection writes s's record section, and records in ix, when it
// is not nil, where each record's bytes lie (see SectionIndex). A section
// holding a record checkRecord refuses, or naming a sender outside the
// ID space, is an error; b then holds a partial section past its old
// length.
func appendSection(b []byte, s *knowledge.Snapshot, ix *SectionIndex) ([]byte, error) {
	if err := checkID(uint64(s.From)); err != nil {
		return b, err
	}
	start := len(b)
	b = binary.AppendUvarint(b, uint64(s.From))
	b = binary.AppendUvarint(b, s.Seq)
	if ix != nil {
		*ix = SectionIndex{head: len(b) - start, procs: len(s.Procs),
			recs: slices.Grow(ix.recs[:0], len(s.Procs)+len(s.Links))}
	}
	b = binary.AppendUvarint(b, uint64(len(s.Procs)))
	b = binary.AppendUvarint(b, uint64(len(s.Links)))
	for i := range s.Procs {
		pr, at := &s.Procs[i], len(b)
		if err := checkRecord(uint64(pr.ID), 0, uint64(pr.Dist), uint64(pr.Est.Succ), uint64(pr.Est.Fail)); err != nil {
			return b, err
		}
		b = binary.AppendUvarint(b, uint64(pr.ID))
		b = appendRecord(b, pr.Dist, &pr.Est)
		if ix != nil {
			ix.recs = append(ix.recs, span{at - start, len(b) - start})
		}
	}
	for i := range s.Links {
		lr, at := &s.Links[i], len(b)
		if err := checkRecord(uint64(lr.Link.A), uint64(lr.Link.B), uint64(lr.Dist), uint64(lr.Est.Succ), uint64(lr.Est.Fail)); err != nil {
			return b, err
		}
		b = binary.AppendUvarint(b, uint64(lr.Link.A))
		b = binary.AppendUvarint(b, uint64(lr.Link.B))
		b = appendRecord(b, lr.Dist, &lr.Est)
		if ix != nil {
			ix.recs = append(ix.recs, span{at - start, len(b) - start})
		}
	}
	return b, nil
}

// appendRecord writes what follows a record's ID or endpoints: its
// distortion and its evidence counts, which checkRecord has bounded.
func appendRecord(b []byte, dist int, s *bayes.State) []byte {
	b = binary.AppendUvarint(b, uint64(dist))
	b = binary.AppendUvarint(b, uint64(s.Succ))
	return binary.AppendUvarint(b, uint64(s.Fail))
}

// record decodes a record: its ID (one ID) or a link's endpoints (two),
// then what appendRecord wrote, and holds it to checkRecord's bounds.
func (r *reader) record(ids int) (a, b uint64, dist int, s bayes.State) {
	a = r.uvarint()
	if ids == 2 {
		b = r.uvarint()
	}
	d, succ, fail := r.uvarint(), r.uvarint(), r.uvarint()
	if r.err != nil {
		return 0, 0, 0, s
	}
	if err := checkRecord(a, b, d, succ, fail); err != nil {
		r.err = err
		return 0, 0, 0, s
	}
	return a, b, int(d), bayes.State{Succ: int(succ), Fail: int(fail)}
}

// The shortest legal records: a byte per varint, a process record's ID,
// distortion and two counts and a link record's two endpoints,
// distortion and two counts.
const (
	minProcRecordSize = 4
	minLinkRecordSize = 5
)

// snapshot parses a record section into s, reusing the capacity of its two
// record slices and overwriting every other field. A slice too small for a section
// grows the way append grows it, not to the exact count: one Scratch
// decodes the sections of every neighbor, and split horizon cuts each a
// different size, so exact sizing would reallocate on most larger ones.
func (r *reader) snapshot(s *knowledge.Snapshot) *knowledge.Snapshot {
	*s = knowledge.Snapshot{
		From:  r.id(),
		Seq:   r.uvarint(),
		Procs: s.Procs[:0],
		Links: s.Links[:0],
	}
	nProcs := r.countOf("proc records", minProcRecordSize, 0)
	nLinks := r.countOf("link records", minLinkRecordSize, nProcs*minProcRecordSize)
	s.Procs = slices.Grow(s.Procs, nProcs)
	for i := 0; i < nProcs && r.err == nil; i++ {
		id, _, dist, est := r.record(1)
		s.Procs = append(s.Procs, knowledge.ProcRecord{ID: topology.NodeID(id), Dist: dist, Est: est})
	}
	s.Links = slices.Grow(s.Links, nLinks)
	for i := 0; i < nLinks && r.err == nil; i++ {
		a, b, dist, est := r.record(2)
		s.Links = append(s.Links, knowledge.LinkRecord{Link: topology.Link{A: topology.NodeID(a), B: topology.NodeID(b)}, Dist: dist, Est: est})
	}
	if r.err != nil {
		return nil
	}
	return s
}

// ---------------------------------------------------------------------------
// Knowledge deltas
// ---------------------------------------------------------------------------

func deltaSize(d *KnowledgeDelta) int {
	return 5*binary.MaxVarintLen64 + snapshotSize(d.Snap)
}

// appendDelta lays out the version bookkeeping before the record set, so
// the fixed-cost liveness header of a near-empty steady-state delta stays
// a handful of bytes.
func appendDelta(b []byte, d *KnowledgeDelta) ([]byte, error) {
	return appendSnapshot(appendDeltaHeader(b, d), d.Snap)
}

// appendDeltaHeader writes the delta's version bookkeeping without its
// record section, so the shared-cut fast path (AppendDeltaFrame) can
// splice a snapshot section that was encoded once for a whole group of
// neighbors. A cadence of 0 writes as the 1 it means.
func appendDeltaHeader(b []byte, d *KnowledgeDelta) []byte {
	for _, v := range [...]uint64{d.Since, d.Ver, d.Ack, max(d.Cadence, 1), d.Epoch} {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// delta parses a delta payload into d and its record section into snap
// (see snapshot), overwriting every field.
func (r *reader) delta(d *KnowledgeDelta, snap *knowledge.Snapshot) *KnowledgeDelta {
	*d = KnowledgeDelta{
		Since:   r.uvarint(),
		Ver:     r.uvarint(),
		Ack:     r.uvarint(),
		Cadence: max(r.uvarint(), 1), // 0 and 1 both mean the classic one frame per δ
		Epoch:   r.uvarint(),
	}
	d.Snap = r.snapshot(snap)
	if r.err != nil {
		return nil
	}
	return d
}

// ---------------------------------------------------------------------------
// Data messages
// ---------------------------------------------------------------------------

func dataSize(m *DataMsg) int {
	n := 8*binary.MaxVarintLen64 + len(m.Parents)*binary.MaxVarintLen32 +
		len(m.AllocByNode)*binary.MaxVarintLen32 + len(m.Body) + 1
	if m.Piggyback != nil {
		n += snapshotSize(m.Piggyback)
	}
	return n
}

func appendData(b []byte, m *DataMsg) ([]byte, error) {
	b = binary.AppendVarint(b, int64(m.Origin))
	b = binary.AppendUvarint(b, m.Seq)
	b = binary.AppendVarint(b, int64(m.Root))
	b = binary.AppendUvarint(b, uint64(len(m.Parents)))
	for _, p := range m.Parents {
		b = binary.AppendVarint(b, int64(p))
	}
	b = binary.AppendUvarint(b, uint64(len(m.AllocByNode)))
	for _, a := range m.AllocByNode {
		b = binary.AppendVarint(b, int64(a))
	}
	b = binary.AppendUvarint(b, uint64(len(m.Body)))
	b = append(b, m.Body...)
	if m.Piggyback != nil {
		var err error
		if b, err = appendSnapshot(append(b, 1), m.Piggyback); err != nil {
			return b, err
		}
	} else {
		b = append(b, 0)
	}
	return binary.AppendUvarint(b, m.Epoch), nil
}

// data parses a data payload into m, reusing the capacity of m's Parents
// and AllocByNode and overwriting every other field.
func (r *reader) data(m *DataMsg) *DataMsg {
	*m = DataMsg{
		Origin:      r.nodeID(),
		Seq:         r.uvarint(),
		Root:        r.nodeID(),
		Parents:     m.Parents[:0],
		AllocByNode: m.AllocByNode[:0],
	}
	nParents := r.count("parents")
	if nParents > cap(m.Parents) {
		m.Parents = make([]topology.NodeID, 0, nParents)
	}
	for i := 0; i < nParents && r.err == nil; i++ {
		m.Parents = append(m.Parents, r.nodeID())
	}
	nAlloc := r.count("allocations")
	if nAlloc > cap(m.AllocByNode) {
		m.AllocByNode = make([]int32, 0, nAlloc)
	}
	for i := 0; i < nAlloc && r.err == nil; i++ {
		v := r.varint()
		if v < 0 || v > MaxAllocation {
			r.fail("allocation %d outside [0,%d]", v, MaxAllocation)
			return nil
		}
		m.AllocByNode = append(m.AllocByNode, int32(v))
	}
	m.Body = r.bytes("body")
	switch r.byte() {
	case 0:
	case 1:
		m.Piggyback = r.snapshot(new(knowledge.Snapshot)) // kept past the frame by whoever relays it
	default:
		r.fail("bad piggyback flag")
	}
	m.Epoch = r.uvarint()
	if r.err != nil {
		return nil
	}
	return m
}

// ---------------------------------------------------------------------------
// Membership announcements (join / leave)
// ---------------------------------------------------------------------------

func membershipSize(m *Membership) int {
	return (5 + len(m.Departed) + len(m.Neighbors)) * binary.MaxVarintLen64
}

func appendMembership(b []byte, m *Membership) []byte {
	b = binary.AppendVarint(b, int64(m.Node))
	b = binary.AppendUvarint(b, m.Epoch)
	b = binary.AppendUvarint(b, uint64(m.NumProcs))
	b = binary.AppendUvarint(b, uint64(len(m.Departed)))
	for _, d := range m.Departed {
		b = binary.AppendVarint(b, int64(d))
	}
	b = binary.AppendUvarint(b, uint64(len(m.Neighbors)))
	for _, nb := range m.Neighbors {
		b = binary.AppendVarint(b, int64(nb))
	}
	return b
}

func (r *reader) membership() *Membership {
	m := &Membership{
		Node:  r.nodeID(),
		Epoch: r.uvarint(),
	}
	np := r.uvarint()
	if np > uint64(math.MaxInt32) {
		r.fail("membership process count %d too large", np)
		return nil
	}
	m.NumProcs = int(np)
	nDep := r.count("departed processes")
	if nDep > 0 {
		m.Departed = make([]topology.NodeID, 0, nDep)
	}
	for i := 0; i < nDep && r.err == nil; i++ {
		m.Departed = append(m.Departed, r.nodeID())
	}
	nNbs := r.count("joiner links")
	if nNbs > 0 {
		m.Neighbors = make([]topology.NodeID, 0, nNbs)
	}
	for i := 0; i < nNbs && r.err == nil; i++ {
		m.Neighbors = append(m.Neighbors, r.nodeID())
	}
	if r.err != nil {
		return nil
	}
	return m
}

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

// frameSize over-estimates the encoded size of a validated frame, for
// pre-sizing fresh buffers.
func frameSize(f *Frame) int {
	size := headerSize
	switch f.Kind {
	case FrameHeartbeat:
		size += snapshotSize(f.Heartbeat)
	case FrameData:
		size += dataSize(f.Data) + binary.MaxVarintLen64
	case FrameKnowledgeDelta:
		size += deltaSize(f.Delta)
	case FrameJoin, FrameLeave:
		size += membershipSize(f.Member)
	}
	return size
}

// appendFrameBytes appends the full encoding (header + payload) of a
// validated frame to b. It allocates nothing beyond growing b. A record
// section checkRecord refuses is an error, and b then holds a partial
// frame past its old length.
func appendFrameBytes(b []byte, f *Frame) ([]byte, error) {
	b = append(b, magic, version, byte(f.Kind))
	switch f.Kind {
	case FrameHeartbeat:
		return appendSnapshot(b, f.Heartbeat)
	case FrameData:
		return appendData(b, f.Data)
	case FrameKnowledgeDelta:
		return appendDelta(b, f.Delta)
	case FrameJoin, FrameLeave:
		b = appendMembership(b, f.Member)
	}
	return b, nil
}

func encodeBinary(f *Frame) ([]byte, error) {
	return appendFrameBytes(make([]byte, 0, frameSize(f)), f)
}

// decodeBinary parses b into sc: the frame, and its payload into the
// storage sc holds for that kind.
func decodeBinary(b []byte, sc *Scratch, borrow bool) error {
	f := &sc.frame
	*f = Frame{}
	if len(b) < headerSize {
		return errors.New("wire: frame shorter than header")
	}
	if b[0] != magic {
		return fmt.Errorf("wire: bad magic %#x", b[0])
	}
	if b[1] != version {
		return fmt.Errorf("wire: unsupported version %d", b[1])
	}
	f.Kind = FrameKind(b[2])
	r := &reader{b: b, off: headerSize, borrow: borrow}
	switch f.Kind {
	case FrameHeartbeat:
		f.Heartbeat = r.snapshot(&sc.snap)
	case FrameData:
		f.Data = r.data(&sc.data)
	case FrameKnowledgeDelta:
		f.Delta = r.delta(&sc.delta, &sc.snap)
	case FrameJoin, FrameLeave:
		f.Member = r.membership()
	default:
		return fmt.Errorf("wire: unknown frame kind %d", f.Kind)
	}
	if r.err != nil {
		return r.err
	}
	if r.off != len(b) {
		return fmt.Errorf("wire: %d trailing bytes", len(b)-r.off)
	}
	return nil
}
