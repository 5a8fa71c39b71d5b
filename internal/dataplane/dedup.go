package dataplane

import "adaptivecast/internal/topology"

// Dedup is the volatile per-incarnation dedup state of Algorithm 1 line 5
// ("if m was not delivered before"). It has no lock of its own: its
// plane's caller serializes it. The zero value is ready to use.
//
// Broadcast sequence numbers are originator-local and start at 1, and a
// working network delivers almost all of them, so instead of one entry per
// broadcast forever (unbounded growth under sustained traffic) the set
// keeps, per origin, a contiguous watermark w — every seq in [1, w] was
// seen — in a dense slice by origin ID, plus, while a gap is open, a
// window of DedupWindow bits over the seqs (w, w+DedupWindow] for
// out-of-order arrivals. Marking w+1 advances the watermark through the
// window, and the window is dropped once the gap closes, so steady traffic
// keeps memory at one word per origin. Seq 0 is reserved by the wire
// format (frames carrying it are rejected at decode) and reads as
// already-seen here. Origins are IDs the caller has range-checked.
//
// A gap that never closes — the origin's sequencer resumed past a crash,
// or a broadcast was wholly lost (the reliability target is K, not 1) —
// must not cost more than the window, so a seq beyond the window's end
// slides it: the watermark is forced up to seq−DedupWindow, conceding
// that anything below it will never arrive, and absorbs the contiguous
// run above. The concession is by distance (a straggler more than
// DedupWindow seqs behind the newest is suppressed), where the overflow
// set this replaced, capped at DedupWindow entries, conceded by count; the
// two agree whenever the span above the watermark stays within the window.
// It is the same best-effort trade the transport already makes.
type Dedup struct {
	w    []uint64                       // by origin ID: every seq in [1, w] was seen
	gaps map[topology.NodeID]*seqWindow // origins with an open gap: what was seen above it
}

// DedupWindow is the span of an origin's window above its watermark, in
// seqs (512 bytes of bits while a gap is open).
const DedupWindow = 1 << 12

// seqWindow is a ring of DedupWindow bits: seq q is bit q mod DedupWindow,
// so inside one window every bit names a single seq.
type seqWindow struct {
	bits [DedupWindow / 64]uint64
	n    int // bits set
}

func (g *seqWindow) has(q uint64) bool { return g.bits[q/64%(DedupWindow/64)]&(1<<(q%64)) != 0 }

func (g *seqWindow) set(q uint64) {
	g.bits[q/64%(DedupWindow/64)] |= 1 << (q % 64)
	g.n++
}

func (g *seqWindow) clear(q uint64) {
	if g.has(q) {
		g.bits[q/64%(DedupWindow/64)] &^= 1 << (q % 64)
		g.n--
	}
}

// advance moves watermark w up to `to` (every seq at or below it reads as
// seen), then through the contiguous run the window holds above it, and
// returns the new watermark. A nil window holds nothing.
func (g *seqWindow) advance(w, to uint64) uint64 {
	if g == nil {
		return to
	}
	if to-w >= DedupWindow {
		*g = seqWindow{}
	}
	for q := w + 1; q <= to && g.n > 0; q++ {
		g.clear(q)
	}
	for g.n > 0 && g.has(to+1) {
		to++
		g.clear(to)
	}
	return to
}

// grow sizes the watermarks for an ID space of n processes.
func (s *Dedup) grow(n int) {
	if n > len(s.w) {
		s.w = append(s.w, make([]uint64, n-len(s.w))...)
	}
}

// Mark records (origin, seq) and reports whether this was its first
// sighting.
func (s *Dedup) Mark(origin topology.NodeID, seq uint64) bool {
	s.grow(int(origin) + 1)
	w, g := s.w[origin], s.gaps[origin]
	if seq <= w {
		return false
	}
	if seq-w > DedupWindow {
		// The gap below the window is not closing; force the watermark up
		// so seq fits, keeping memory bounded.
		w = g.advance(w, seq-DedupWindow)
	}
	switch {
	case seq == w+1:
		w = g.advance(w, seq)
	case g == nil:
		g = new(seqWindow)
		if s.gaps == nil {
			s.gaps = make(map[topology.NodeID]*seqWindow)
		}
		s.gaps[origin] = g
		g.set(seq)
	case g.has(seq):
		return false
	default:
		g.set(seq)
	}
	s.w[origin] = w
	if g != nil && g.n == 0 {
		delete(s.gaps, origin)
	}
	return true
}

// Seen reports whether (origin, seq) was marked, without marking it.
func (s *Dedup) Seen(origin topology.NodeID, seq uint64) bool {
	w := uint64(0)
	if int(origin) < len(s.w) {
		w = s.w[origin]
	}
	g := s.gaps[origin]
	return seq <= w || g != nil && seq-w <= DedupWindow && g.has(seq)
}

// Pending returns the number of out-of-order seqs currently buffered
// above the watermarks.
func (s *Dedup) Pending() int {
	n := 0
	for _, g := range s.gaps {
		n += g.n
	}
	return n
}

// Size reports how many origins the set keeps a watermark for, and how
// many of them have a window open.
func (s *Dedup) Size() (origins, windows int) { return len(s.w), len(s.gaps) }
