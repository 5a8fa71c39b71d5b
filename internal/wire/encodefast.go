package wire

// The zero-alloc encode datapath: append-style encoders that write into
// caller-owned (typically pooled) buffers instead of allocating per
// frame, plus the two structural-sharing fast paths the node's send
// pipeline is built on — shared delta cuts (encode the snapshot record
// section once per acked-base group of neighbors, and copy each
// neighbor's subset of its records into that neighbor's frame) and the
// piggybacked-forward splice (relays reuse the already-encoded
// data-message bytes instead of re-serializing per hop). Every function
// here produces
// byte-identical output to Encode for the same logical frame; the
// golden and byte-equality tests pin that.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

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
	b, err := appendFrameBytes(dst, f)
	if err != nil {
		return dst, err
	}
	return b, nil
}

// AppendSnapshotSection appends the wire form of a knowledge snapshot's
// record section to dst. The section is the same in every frame that
// carries one, which is what makes shared delta cuts sound: encode the
// section once per acked-base group of neighbors, then build each
// neighbor's frame around it with AppendDeltaFrame — per-neighbor fields
// (Ack, Cadence) may differ without invalidating the shared bytes.
func AppendSnapshotSection(dst []byte, s *knowledge.Snapshot) ([]byte, error) {
	if s == nil {
		return dst, errors.New("wire: nil snapshot")
	}
	b, err := appendSnapshot(dst, s)
	if err != nil {
		return dst, err
	}
	return b, nil
}

// SectionIndex locates the records of a section encoded by
// AppendSnapshotSectionIndexed, so appendSectionSubset can copy any
// subset of them without re-encoding one. A zero SectionIndex is ready
// for use; one kept between sections reuses its storage.
type SectionIndex struct {
	head  int    // bytes of the From and Seq varints
	procs int    // process records; recs[:procs] are theirs
	recs  []span // each record's bytes, processes then links
}

// span is a record's byte range within its section.
type span struct{ from, to int }

// AppendSnapshotSectionIndexed is AppendSnapshotSection that also records
// in ix where each record's bytes lie, for appendSectionSubset.
func AppendSnapshotSectionIndexed(dst []byte, s *knowledge.Snapshot, ix *SectionIndex) ([]byte, error) {
	if s == nil || ix == nil {
		return dst, errors.New("wire: nil snapshot or index")
	}
	b, err := appendSection(dst, s, ix)
	if err != nil {
		return dst, err
	}
	return b, nil
}

// appendSectionSubset appends to dst the record section of sec — encoded
// by AppendSnapshotSectionIndexed, which filled ix — without the records
// skip lists: skip holds, in ascending order, indices of records of the
// encoded snapshot, counting its Procs, then its Links. The output is
// byte-identical to the section of the snapshot without those records
// under sec's head. Kept records are copied, in order and in
// one run per gap in skip, never re-encoded.
func appendSectionSubset(dst, sec []byte, ix *SectionIndex, skip []int) []byte {
	// The subset is never longer than sec: grow dst once, not per run.
	dst = slices.Grow(dst, len(sec))
	if len(skip) == 0 {
		return append(dst, sec...)
	}
	cut := 0 // skip[:cut] are process records
	for cut < len(skip) && skip[cut] < ix.procs {
		cut++
	}
	dst = append(dst, sec[:ix.head]...)
	dst = binary.AppendUvarint(dst, uint64(ix.procs-cut))
	dst = binary.AppendUvarint(dst, uint64(len(ix.recs)-ix.procs-(len(skip)-cut)))
	from := 0 // the first record of the run still to copy
	for _, i := range skip {
		if i > from {
			dst = append(dst, sec[ix.recs[from].from:ix.recs[i-1].to]...)
		}
		from = i + 1
	}
	if from < len(ix.recs) {
		dst = append(dst, sec[ix.recs[from].from:ix.recs[len(ix.recs)-1].to]...)
	}
	return dst
}

// AppendDeltaFrame appends a complete knowledge-delta frame to dst,
// splicing in a record section pre-encoded with AppendSnapshotSection of
// d.Snap's records; d.Snap itself is not read and may be nil. The output
// is byte-identical to AppendFrame of the equivalent frame, at the cost
// of one header instead of a full snapshot walk per neighbor.
func AppendDeltaFrame(dst []byte, d *KnowledgeDelta, snapSection []byte) ([]byte, error) {
	if d == nil {
		return dst, errors.New("wire: nil delta")
	}
	if err := checkDeltaHeader(d); err != nil {
		return dst, err
	}
	dst = append(dst, magic, version, byte(FrameKnowledgeDelta))
	dst = appendDeltaHeader(dst, d)
	return append(dst, snapSection...), nil
}

// AppendDeltaFrameSubset is AppendDeltaFrame with the section
// appendSectionSubset(sec, ix, skip) copied straight into the frame, so a
// receiver's subset of a shared cut costs no buffer of its own.
func AppendDeltaFrameSubset(dst []byte, d *KnowledgeDelta, sec []byte, ix *SectionIndex, skip []int) ([]byte, error) {
	frame, err := AppendDeltaFrame(dst, d, nil)
	if err != nil {
		return dst, err
	}
	return appendSectionSubset(frame, sec, ix, skip), nil
}

// SpliceDataPiggyback appends to dst a data frame equal to re-encoding
// raw — an already-encoded FrameData frame — with its piggyback section
// replaced by snap (nil clears it). Everything outside the piggyback
// section is copied verbatim, so a piggybacking relay re-serializes
// only its own snapshot, never the message prefix (origin, sequence,
// tree, allocation, body) or the epoch suffix.
func SpliceDataPiggyback(dst, raw []byte, snap *knowledge.Snapshot) ([]byte, error) {
	flagOff, pbEnd, err := dataSpliceBounds(raw)
	if err != nil {
		return dst, err
	}
	b := append(dst, raw[:flagOff]...)
	if snap != nil {
		if b, err = appendSnapshot(append(b, 1), snap); err != nil {
			return dst, err
		}
	} else {
		b = append(b, 0)
	}
	return append(b, raw[pbEnd:]...), nil
}

// dataSpliceBounds walks an encoded FrameData frame and locates its
// piggyback section: flagOff is the offset of the piggyback flag byte,
// pbEnd the offset just past the section (flag plus optional snapshot).
// The walk skips field contents without materializing them, so a splice
// pays varint scans, never allocations.
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
	r.uvarint() // from
	r.uvarint() // seq
	procs, links := r.count("proc records"), r.count("link records")
	for i := 0; i < procs+links && r.err == nil; i++ {
		if i >= procs {
			r.uvarint() // a link's first endpoint
		}
		r.uvarint() // the ID, or the link's second endpoint
		r.uvarint() // distortion
		r.uvarint() // successes
		r.uvarint() // failures
	}
}
