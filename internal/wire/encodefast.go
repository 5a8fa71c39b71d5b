package wire

// The zero-alloc encode datapath: append-style encoders that write into
// caller-owned (typically pooled) buffers instead of allocating per
// frame, plus the two structural-sharing fast paths the node's send
// pipeline is built on — shared delta cuts (encode the snapshot record
// section once per acked-base group of neighbors) and the piggybacked-
// forward splice (relays reuse the already-encoded data-message bytes
// instead of re-serializing per hop). Every function here produces
// byte-identical output to Encode for the same logical frame; the
// golden and byte-equality tests pin that.

import (
	"errors"
	"fmt"

	"adaptivecast/internal/knowledge"
)

// AppendFrame appends f's binary encoding to dst and returns the
// extended slice. It is Encode without the allocation: when dst has
// enough spare capacity nothing is allocated, which is what lets pooled
// send buffers make the steady-state encode path garbage-free. On error
// dst is returned unmodified.
func AppendFrame(dst []byte, f *Frame) ([]byte, error) {
	if err := validate(f); err != nil {
		return dst, err
	}
	return appendFrameBytes(dst, f), nil
}

// EncodeInto encodes f into buf's storage, reusing its capacity:
// equivalent to AppendFrame(buf[:0], f). The returned slice shares
// buf's backing array unless the frame outgrew it.
func EncodeInto(buf []byte, f *Frame) ([]byte, error) {
	return AppendFrame(buf[:0], f)
}

// AppendSnapshotSection appends the wire form of a knowledge snapshot's
// record section to dst, in the raw (float64) estimator layout. The
// raw section is identical across all wire versions, which is what makes
// shared delta cuts sound: encode the section once per acked-base group
// of neighbors, then build each neighbor's frame around it with
// AppendDeltaFrame — per-neighbor fields (Ack, Cadence) and even the
// frame version may differ without invalidating the shared bytes.
//
// The evidence-count layout is the one exception: it is legal only
// inside version-5 frames, so a section encoded with
// AppendSnapshotSectionCounts may only be spliced under a delta whose
// Caps is at least CapsCounts.
func AppendSnapshotSection(dst []byte, s *knowledge.Snapshot) ([]byte, error) {
	if s == nil {
		return dst, errors.New("wire: nil snapshot")
	}
	return appendSnapshot(dst, s, false), nil
}

// AppendSnapshotSectionCounts is AppendSnapshotSection with the
// evidence-count layout for every estimator it can carry (three varints
// instead of U floats). The resulting section may only ride version-5
// frames: splice it only under deltas whose Caps is CapsCounts or more.
func AppendSnapshotSectionCounts(dst []byte, s *knowledge.Snapshot) ([]byte, error) {
	if s == nil {
		return dst, errors.New("wire: nil snapshot")
	}
	return appendSnapshot(dst, s, true), nil
}

// AppendDeltaFrame appends a complete knowledge-delta frame to dst,
// splicing in a record section pre-encoded with AppendSnapshotSection
// (or, when d.Caps ≥ CapsCounts, AppendSnapshotSectionCounts — the count
// layout requires it) of d.Snap's records; d.Snap itself is not read and
// may be nil. The output is byte-identical to AppendFrame of the
// equivalent frame — version selection follows the same rules — at the
// cost of one header instead of a full snapshot walk per neighbor.
func AppendDeltaFrame(dst []byte, d *KnowledgeDelta, snapSection []byte) ([]byte, error) {
	if d == nil {
		return dst, errors.New("wire: nil delta")
	}
	if err := checkDeltaHeader(d); err != nil {
		return dst, err
	}
	ver := deltaVersion(d)
	dst = append(dst, magic, ver, byte(FrameKnowledgeDelta))
	dst = appendDeltaHeader(dst, d, ver)
	return append(dst, snapSection...), nil
}

// SpliceDataPiggyback appends to dst a data frame equal to re-encoding
// raw — an already-encoded FrameData frame — with its piggyback section
// replaced by snap (nil clears it). Everything outside the piggyback
// section is copied verbatim, so a piggybacking relay re-serializes
// only its own snapshot, never the message prefix (origin, sequence,
// tree, allocation, body) or the epoch suffix. The frame version is
// raw's: the version depends only on the epoch, which a relay never
// changes (the epoch gate admitted the frame at our own epoch).
func SpliceDataPiggyback(dst, raw []byte, snap *knowledge.Snapshot) ([]byte, error) {
	flagOff, pbEnd, err := dataSpliceBounds(raw)
	if err != nil {
		return dst, err
	}
	dst = append(dst, raw[:flagOff]...)
	if snap != nil {
		// Data frames have no v5 layout (the splice output keeps raw's
		// version), so the snapshot always uses the raw layout.
		dst = append(dst, 1)
		dst = appendSnapshot(dst, snap, false)
	} else {
		dst = append(dst, 0)
	}
	return append(dst, raw[pbEnd:]...), nil
}

// dataSpliceBounds walks an encoded FrameData frame and locates its
// piggyback section: flagOff is the offset of the piggyback flag byte,
// pbEnd the offset just past the section (flag plus optional snapshot).
// The walk skips field contents without materializing them, so a splice
// pays varint scans, never allocations or float conversions.
func dataSpliceBounds(raw []byte) (flagOff, pbEnd int, err error) {
	if len(raw) < headerSize {
		return 0, 0, errors.New("wire: frame shorter than header")
	}
	if raw[0] != magic {
		return 0, 0, fmt.Errorf("wire: bad magic %#x", raw[0])
	}
	if FrameKind(raw[2]) != FrameData {
		return 0, 0, fmt.Errorf("wire: splice on non-data frame kind %d", raw[2])
	}
	r := &reader{b: raw, off: headerSize}
	r.varint()  // origin
	r.uvarint() // seq
	r.varint()  // root
	for i, n := 0, r.count("parents"); i < n && r.err == nil; i++ {
		r.varint()
	}
	for i, n := 0, r.count("allocations"); i < n && r.err == nil; i++ {
		r.varint()
	}
	r.skip(r.count("body"), "body")
	flagOff = r.off
	switch r.byte() {
	case 0:
	case 1:
		r.skipSnapshot()
	default:
		r.fail("bad piggyback flag")
	}
	pbEnd = r.off
	if r.err != nil {
		return 0, 0, r.err
	}
	return flagOff, pbEnd, nil
}

// skip advances past n raw bytes.
func (r *reader) skip(n int, what string) {
	if r.err != nil {
		return
	}
	if n < 0 || r.remaining() < n {
		r.fail("%s: %d bytes exceed frame", what, n)
		return
	}
	r.off += n
}

// skipSnapshot advances past one encoded snapshot section without
// materializing records.
func (r *reader) skipSnapshot() {
	r.varint()  // from
	r.uvarint() // seq
	for i, n := 0, r.count("proc records"); i < n && r.err == nil; i++ {
		r.varint() // id
		r.varint() // dist
		r.skipEstimator()
	}
	for i, n := 0, r.count("link records"); i < n && r.err == nil; i++ {
		r.varint() // link a
		r.varint() // link b
		r.varint() // dist
		r.skipEstimator()
	}
}

// skipEstimator advances past one encoded estimator state.
func (r *reader) skipEstimator() {
	switch flags := r.byte(); flags {
	case flagUniform:
		r.uvarint() // interval count; nothing allocated, nothing to clamp
	default:
		r.fail("unknown estimator flags %#x", flags)
	}
	r.skip(8*r.count("beliefs"), "beliefs")
}
