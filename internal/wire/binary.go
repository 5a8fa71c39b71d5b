package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"adaptivecast/internal/bayes"
	"adaptivecast/internal/knowledge"
	"adaptivecast/internal/topology"
)

// Binary framing (see the README "Wire format" section):
//
//	[0] magic 0xAC
//	[1] version (1, 2, 3 or 5)
//	[2] kind (FrameHeartbeat | FrameData | FrameKnowledgeDelta | FrameJoin | FrameLeave)
//	payload…
//
// Every frame encodes as the oldest version that can carry its payload.
// Version 2 differs from version 1 in exactly one place: a knowledge-
// delta payload carries one extra Cadence uvarint after the
// {Since, Ver, Ack} header, so only deltas whose cadence is actually
// stretched (Cadence > 1) need it.
//
// Version 3 adds dynamic membership: delta payloads gain an Epoch uvarint
// after Cadence (which is always present from v3 on, stretched or not),
// data payloads gain an Epoch uvarint after the piggyback section, and
// the FrameJoin / FrameLeave kinds carry a Membership payload. Only a
// nonzero epoch (and the membership kinds) needs it, so a static
// cluster's frames cost nothing for epochs.
//
// Version 5 adds a Caps uvarint — the sender's highest supported wire
// version, at least 5 — to heartbeat frames (before the snapshot) and to
// delta frames (after Epoch), and the evidence-count estimator layout,
// flagCounts: an estimator that never left the uniform prior on the
// uniform grid is a pure function of three integers, so it ships as
// uvarint U, uvarint successes, uvarint failures (~5 bytes against ~800
// raw). Every other estimator — one rebuilt from a raw vector — rides the
// raw layout, which is legal in every version. The node sends
// a heartbeat or delta whose record section is non-empty as version 5; an
// empty section encodes the same bytes in any layout, so it keeps the
// oldest header that fits. Data frames have no v5 layout, so their
// piggybacked snapshots ride the raw layout. Membership frames are
// always v3.
//
// The decoder accepts exactly those shapes — heartbeat v1 and v5, data v1
// and v3, delta v1, v2, v3 and v5, join and leave v3 — which are the
// versions the wirekind annotations on the FrameKind constants declare.
// Version 4, the retired quantized-belief profile, is unsupported, and so
// is the retired refined-grid estimator layout (flags 0x00, midpoints
// shipped explicitly).
//
// Integers are varints (unsigned for sequence numbers, lengths and
// counts; zigzag for node IDs, distortions and allocations, which can be
// negative sentinels), floats are 8-byte little-endian IEEE 754, byte
// strings are length-prefixed. A raw Bayesian estimator ships its
// interval count and its log-belief vector; the grid is always the
// uniform one.

const (
	magic       = 0xAC
	version     = 1
	version2    = 2 // delta frames carrying a stretched Cadence
	version3    = 3 // nonzero membership epoch; join/leave frames
	version5    = 5 // caps field; evidence-count estimator layout
	headerSize  = 3
	flagUniform = 1 << 0 // raw estimator layout: U, then the log-belief vector
	// flagCounts is the evidence-count layout, legal only from version 5
	// on: uniform grid, uniform prior, (U, successes, failures).
	flagCounts = 4
)

// appendUvarint, appendVarint etc. build on the stdlib append helpers; a
// thin reader with a sticky error handles the inbound direction so the
// decoder reads straight-line without per-field error plumbing.

type reader struct {
	b      []byte
	off    int
	ver    byte // frame version from the header; gates the v5 layouts
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
func (r *reader) count(what string) int { return r.countOf(what, 1) }

// countOf is count for elements of at least minSize encoded bytes each:
// the count sizes an array of decoded elements, which for a knowledge
// record is some twenty times its shortest encoding.
func (r *reader) countOf(what string, minSize int) int {
	v := r.uvarint()
	if r.err != nil {
		return 0
	}
	if v > uint64(r.remaining()/minSize) {
		r.fail("%s count %d exceeds frame", what, v)
		return 0
	}
	return int(v)
}

func (r *reader) float() float64 {
	if r.err != nil {
		return 0
	}
	if r.remaining() < 8 {
		r.fail("truncated float")
		return 0
	}
	bits := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return math.Float64frombits(bits)
}

// floats reads n 8-byte floats, bounds-checked up front.
func (r *reader) floats(n int, what string) []float64 {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.remaining() < 8*n {
		r.fail("%s: %d floats exceed frame", what, n)
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
		r.off += 8
	}
	return out
}

// caps reads a Caps field: the sender's highest supported wire
// version. A frame advertising less than its own version is
// self-contradictory and rejected.
func (r *reader) caps() uint64 {
	v := r.uvarint()
	if r.err == nil && (v < uint64(r.ver) || v > MaxCaps) {
		r.fail("version-%d frame advertises caps %d", r.ver, v)
	}
	return v
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

func appendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

func appendFloats(b []byte, fs []float64) []byte {
	for _, f := range fs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	return b
}

// ---------------------------------------------------------------------------
// Estimator state
// ---------------------------------------------------------------------------

// appendEstimator writes one estimator state. counts permits the
// evidence-count layout and must be false unless the surrounding frame
// encodes as version 5; states the layout cannot carry — a raw-vector
// prior, an interval or evidence count beyond what decoders admit — fall
// back to the raw float layout, materializing the log-belief vector on the
// way out.
func appendEstimator(b []byte, s *bayes.State, counts bool) []byte {
	if counts && s.IsCounts() && s.Intervals <= MaxIntervals &&
		s.Succ >= 0 && s.Fail >= 0 && s.Succ+s.Fail <= MaxEvidence {
		b = append(b, flagCounts)
		b = binary.AppendUvarint(b, uint64(s.Intervals))
		b = binary.AppendUvarint(b, uint64(s.Succ))
		return binary.AppendUvarint(b, uint64(s.Fail))
	}
	b = append(b, flagUniform)
	b = binary.AppendUvarint(b, uint64(s.Intervals))
	// The paper's U = 100 materializes on the stack; larger grids spill.
	var scratch [128]float64
	beliefs := s.AppendLogBeliefs(scratch[:0])
	b = binary.AppendUvarint(b, uint64(len(beliefs)))
	return appendFloats(b, beliefs)
}

func (r *reader) estimator() bayes.State {
	var s bayes.State
	flags := r.byte()
	switch flags {
	case flagUniform:
		// The grid ships only as its interval count; each belief below is
		// 8 bytes, so cap the count by the remaining frame the same way
		// explicit float arrays are capped.
		u := r.uvarint()
		if r.err != nil {
			return s
		}
		if u > uint64(r.remaining()/8+1) {
			r.fail("uniform grid count %d exceeds frame", u)
			return s
		}
		s.Intervals = int(u)
	case flagCounts:
		if r.ver < version5 {
			r.fail("evidence-count estimator in a version-%d frame", r.ver)
			return s
		}
		// A count record is a handful of bytes whatever it declares, so
		// nothing about the frame bounds U or the counts: bound them here,
		// before U can size a grid or a count can overflow float64(n)·log.
		u, succ, fail := r.uvarint(), r.uvarint(), r.uvarint()
		if r.err != nil {
			return s
		}
		if u > MaxIntervals {
			r.fail("evidence-count estimator declares %d intervals, bound is %d", u, MaxIntervals)
			return s
		}
		if succ > MaxEvidence || fail > MaxEvidence || succ+fail > MaxEvidence {
			r.fail("evidence counts (%d, %d) exceed the %d bound", succ, fail, MaxEvidence)
			return s
		}
		s.Intervals, s.Succ, s.Fail = int(u), int(succ), int(fail)
		return s
	default:
		r.fail("unknown estimator flags %#x", flags)
		return s
	}
	n := r.count("beliefs")
	s.LogBeliefs = r.floats(n, "beliefs")
	return s
}

// ---------------------------------------------------------------------------
// Knowledge snapshots
// ---------------------------------------------------------------------------

// estimatorSize is a pre-allocation estimate for one serialized
// estimator; counts says the frame may use the evidence-count layout.
func estimatorSize(s *bayes.State, counts bool) int {
	if counts && s.IsCounts() {
		return 1 + 3*binary.MaxVarintLen64
	}
	return 1 + 2*binary.MaxVarintLen32 + 8*s.Intervals
}

func snapshotSize(s *knowledge.Snapshot, counts bool) int {
	n := 4 * binary.MaxVarintLen64
	for i := range s.Procs {
		n += 2*binary.MaxVarintLen64 + estimatorSize(&s.Procs[i].Est, counts)
	}
	for i := range s.Links {
		n += 3*binary.MaxVarintLen64 + estimatorSize(&s.Links[i].Est, counts)
	}
	return n
}

// appendSnapshot writes a snapshot's record section. counts permits the
// evidence-count estimator layout; callers must pass false unless the
// surrounding frame encodes as version 5.
func appendSnapshot(b []byte, s *knowledge.Snapshot, counts bool) []byte {
	b = binary.AppendVarint(b, int64(s.From))
	b = binary.AppendUvarint(b, s.Seq)
	b = binary.AppendUvarint(b, uint64(len(s.Procs)))
	for i := range s.Procs {
		pr := &s.Procs[i]
		b = binary.AppendVarint(b, int64(pr.ID))
		b = binary.AppendVarint(b, int64(pr.Dist))
		b = appendEstimator(b, &pr.Est, counts)
	}
	b = binary.AppendUvarint(b, uint64(len(s.Links)))
	for i := range s.Links {
		lr := &s.Links[i]
		b = binary.AppendVarint(b, int64(lr.Link.A))
		b = binary.AppendVarint(b, int64(lr.Link.B))
		b = binary.AppendVarint(b, int64(lr.Dist))
		b = appendEstimator(b, &lr.Est, counts)
	}
	return b
}

// The shortest legal encodings, from the layouts above: an estimator is a
// flag byte and at least two one-byte varints (an interval count, then a
// belief count; the count layout is longer), a process
// record prefixes it with two varints (ID, distortion) and a link record
// with three (A, B, distortion).
const (
	minEstimatorSize  = 3
	minProcRecordSize = 2 + minEstimatorSize
	minLinkRecordSize = 3 + minEstimatorSize
)

// snapshot parses a record section into s, reusing the capacity of its two
// record slices and overwriting every other field. Each estimator's own
// float vectors are fresh either way.
func (r *reader) snapshot(s *knowledge.Snapshot) *knowledge.Snapshot {
	*s = knowledge.Snapshot{
		From:  r.nodeID(),
		Seq:   r.uvarint(),
		Procs: s.Procs[:0],
		Links: s.Links[:0],
	}
	nProcs := r.countOf("proc records", minProcRecordSize)
	if nProcs > cap(s.Procs) {
		s.Procs = make([]knowledge.ProcRecord, 0, nProcs)
	}
	for i := 0; i < nProcs && r.err == nil; i++ {
		s.Procs = append(s.Procs, knowledge.ProcRecord{
			ID:   r.nodeID(),
			Dist: int(r.varint()),
			Est:  r.estimator(),
		})
	}
	nLinks := r.countOf("link records", minLinkRecordSize)
	if nLinks > cap(s.Links) {
		s.Links = make([]knowledge.LinkRecord, 0, nLinks)
	}
	for i := 0; i < nLinks && r.err == nil; i++ {
		s.Links = append(s.Links, knowledge.LinkRecord{
			Link: topology.Link{A: r.nodeID(), B: r.nodeID()},
			Dist: int(r.varint()),
			Est:  r.estimator(),
		})
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
	return 5*binary.MaxVarintLen64 + snapshotSize(d.Snap, d.Caps >= CapsCounts)
}

// appendDelta lays out the version bookkeeping before the record set, so
// the fixed-cost liveness header of a near-empty steady-state delta stays
// a handful of bytes. The cadence uvarint exists only in version-2+
// frames (version-1 frames imply cadence 1); the epoch uvarint only from
// version 3 on (earlier versions imply epoch 0); the caps uvarint only in
// version 5.
func appendDelta(b []byte, d *KnowledgeDelta, ver byte) []byte {
	return appendSnapshot(appendDeltaHeader(b, d, ver), d.Snap, ver >= version5)
}

// appendDeltaHeader writes the delta's version bookkeeping without its
// record section, so the shared-cut fast path (AppendDeltaFrame) can
// splice a snapshot section that was encoded once for a whole group of
// neighbors.
func appendDeltaHeader(b []byte, d *KnowledgeDelta, ver byte) []byte {
	b = binary.AppendUvarint(b, d.Since)
	b = binary.AppendUvarint(b, d.Ver)
	b = binary.AppendUvarint(b, d.Ack)
	if ver >= version2 {
		b = binary.AppendUvarint(b, d.Cadence)
	}
	if ver >= version3 {
		b = binary.AppendUvarint(b, d.Epoch)
	}
	if ver >= version5 {
		b = binary.AppendUvarint(b, d.Caps)
	}
	return b
}

// delta parses a delta payload into d and its record section into snap
// (see snapshot), overwriting every field.
func (r *reader) delta(ver byte, d *KnowledgeDelta, snap *knowledge.Snapshot) *KnowledgeDelta {
	*d = KnowledgeDelta{
		Since:   r.uvarint(),
		Ver:     r.uvarint(),
		Ack:     r.uvarint(),
		Cadence: 1,
	}
	if ver >= version2 {
		if d.Cadence = r.uvarint(); d.Cadence == 0 {
			d.Cadence = 1 // 0 and 1 both mean the classic one frame per δ
		}
	}
	if ver >= version3 {
		d.Epoch = r.uvarint()
	}
	if ver >= version5 {
		d.Caps = r.caps()
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
		n += snapshotSize(m.Piggyback, false)
	}
	return n
}

func appendData(b []byte, m *DataMsg, ver byte) []byte {
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
		// Data frames have no v5 layout, so the piggyback is raw.
		b = append(b, 1)
		b = appendSnapshot(b, m.Piggyback, false)
	} else {
		b = append(b, 0)
	}
	if ver >= version3 {
		b = binary.AppendUvarint(b, m.Epoch)
	}
	return b
}

// data parses a data payload into m, reusing the capacity of m's Parents
// and AllocByNode and overwriting every other field.
func (r *reader) data(ver byte, m *DataMsg) *DataMsg {
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
	if ver >= version3 {
		m.Epoch = r.uvarint()
	}
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

// frameVersion picks the wire version a frame encodes as: always the
// oldest layout that can carry the payload, so static-cluster frames stay
// byte-identical to the v1/v2 encoding (the golden test pins this).
func frameVersion(f *Frame) byte {
	switch f.Kind {
	case FrameHeartbeat:
		if f.Caps > 0 {
			return version5
		}
	case FrameData:
		if f.Data.Epoch > 0 {
			// Only a grown/shrunk cluster needs the epoch fence.
			return version3
		}
	case FrameKnowledgeDelta:
		return deltaVersion(f.Delta)
	case FrameJoin, FrameLeave:
		// Membership kinds exist only since v3; no older layout to match.
		return version3
	}
	return version
}

// deltaVersion is frameVersion for the delta payload alone, shared with
// the pre-encoded-section fast path (AppendDeltaFrame).
func deltaVersion(d *KnowledgeDelta) byte {
	if d.Caps > 0 {
		return version5
	}
	if d.Epoch > 0 {
		return version3
	}
	if d.Cadence > 1 {
		// Only a stretched cadence needs the v2 layout; the classic
		// one-frame-per-δ delta stays byte-identical to v1.
		return version2
	}
	return version
}

// frameSize over-estimates the encoded size of a validated frame, for
// pre-sizing fresh buffers.
func frameSize(f *Frame) int {
	size := headerSize
	switch f.Kind {
	case FrameHeartbeat:
		size += snapshotSize(f.Heartbeat, f.Caps >= CapsCounts) + binary.MaxVarintLen64
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
// validated frame to b. It allocates nothing beyond growing b.
func appendFrameBytes(b []byte, f *Frame) []byte {
	ver := frameVersion(f)
	b = append(b, magic, ver, byte(f.Kind))
	switch f.Kind {
	case FrameHeartbeat:
		if ver >= version5 {
			b = binary.AppendUvarint(b, f.Caps)
		}
		b = appendSnapshot(b, f.Heartbeat, ver >= version5)
	case FrameData:
		b = appendData(b, f.Data, ver)
	case FrameKnowledgeDelta:
		b = appendDelta(b, f.Delta, ver)
	case FrameJoin, FrameLeave:
		b = appendMembership(b, f.Member)
	}
	return b
}

func encodeBinary(f *Frame) ([]byte, error) {
	return appendFrameBytes(make([]byte, 0, frameSize(f)), f), nil
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
	ver := b[1]
	if ver < version || ver > version5 || ver == 4 { // 4: the retired quantized profile
		return fmt.Errorf("wire: unsupported version %d", ver)
	}
	f.Kind = FrameKind(b[2])
	r := &reader{b: b, off: headerSize, ver: ver, borrow: borrow}
	switch f.Kind {
	case FrameHeartbeat:
		if ver != version && ver != version5 {
			return fmt.Errorf("wire: heartbeat frame at version %d", ver)
		}
		if ver == version5 {
			f.Caps = r.caps()
		}
		f.Heartbeat = r.snapshot(&sc.snap)
	case FrameData:
		if ver != version && ver != version3 {
			return fmt.Errorf("wire: data frame at version %d", ver)
		}
		f.Data = r.data(ver, &sc.data)
	case FrameKnowledgeDelta:
		f.Delta = r.delta(ver, &sc.delta, &sc.snap)
	case FrameJoin, FrameLeave:
		if ver != version3 {
			return fmt.Errorf("wire: membership frame at version %d", ver)
		}
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
