package node

import (
	"math/rand"
	"slices"
	"testing"

	"adaptivecast/internal/dataplane"
	"adaptivecast/internal/raceflag"
	"adaptivecast/internal/topology"
	"adaptivecast/internal/wire"
)

// mapDeliveredSet is the dedup set as it was before the window: a
// watermark plus an overflow map per origin, capped at
// dataplane.DedupWindow entries and conceding by count. It stays as the oracle the window is held to.
type mapDeliveredSet struct {
	watermark map[topology.NodeID]uint64
	overflow  map[topology.NodeID]map[uint64]struct{}
}

func newMapDeliveredSet() *mapDeliveredSet {
	return &mapDeliveredSet{
		watermark: make(map[topology.NodeID]uint64),
		overflow:  make(map[topology.NodeID]map[uint64]struct{}),
	}
}

func (s *mapDeliveredSet) mark(origin topology.NodeID, seq uint64) bool {
	w := s.watermark[origin]
	if seq <= w {
		return false
	}
	over := s.overflow[origin]
	if _, dup := over[seq]; dup {
		return false
	}
	if seq == w+1 {
		w++
		for {
			if _, ok := over[w+1]; !ok {
				break
			}
			delete(over, w+1)
			w++
		}
		s.watermark[origin] = w
		if len(over) == 0 {
			delete(s.overflow, origin)
		}
		return true
	}
	if over == nil {
		over = make(map[uint64]struct{})
		s.overflow[origin] = over
	}
	over[seq] = struct{}{}
	if len(over) > dataplane.DedupWindow {
		min := seq
		for q := range over {
			if q < min {
				min = q
			}
		}
		delete(over, min)
		w = min
		for {
			if _, ok := over[w+1]; !ok {
				break
			}
			delete(over, w+1)
			w++
		}
		s.watermark[origin] = w
		if len(over) == 0 {
			delete(s.overflow, origin)
		}
	}
	return true
}

func (s *mapDeliveredSet) seen(origin topology.NodeID, seq uint64) bool {
	if seq <= s.watermark[origin] {
		return true
	}
	_, ok := s.overflow[origin][seq]
	return ok
}

func (s *mapDeliveredSet) pending() int {
	n := 0
	for _, over := range s.overflow {
		n += len(over)
	}
	return n
}

// TestDeliveredWindowMatchesMapOracle: over random streams of reordered,
// lost and duplicated broadcasts from several origins, whose span above
// the watermark stays within the window, the window and the overflow map
// it replaced agree on every mark, every seen and every pending count.
func TestDeliveredWindowMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for run := 0; run < 40; run++ {
		type arrival struct {
			origin topology.NodeID
			seq    uint64
		}
		origins := 1 + rng.Intn(5)
		perOrigin := uint64(100 + rng.Intn(dataplane.DedupWindow-100)) // seqs stay within one window
		loss, dup, reorder := rng.Float64()*0.2, rng.Float64()*0.3, 1+rng.Intn(300)
		var stream []arrival
		for o := 0; o < origins; o++ {
			for q := uint64(1); q <= perOrigin; q++ {
				if rng.Float64() < loss {
					continue
				}
				stream = append(stream, arrival{topology.NodeID(o * 3), q})
				if rng.Float64() < dup {
					stream = append(stream, arrival{topology.NodeID(o * 3), q})
				}
			}
		}
		rng.Shuffle(len(stream), func(i, j int) { stream[i], stream[j] = stream[j], stream[i] })
		// Restore most of the order: a stable sort on seq plus a bounded
		// random displacement is a reorder window of about `reorder` seqs.
		key := make(map[arrival]int, len(stream))
		for _, a := range stream {
			key[a] = int(a.seq) + rng.Intn(reorder)
		}
		slices.SortStableFunc(stream, func(a, b arrival) int { return key[a] - key[b] })

		window, oracle := new(dataplane.Dedup), newMapDeliveredSet()
		for i, a := range stream {
			if got, want := window.Mark(a.origin, a.seq), oracle.mark(a.origin, a.seq); got != want {
				t.Fatalf("run %d arrival %d (%d, %d): window says fresh=%v, oracle %v", run, i, a.origin, a.seq, got, want)
			}
			if i%97 == 0 && window.Pending() != oracle.pending() {
				t.Fatalf("run %d arrival %d: window holds %d pending seqs, oracle %d", run, i, window.Pending(), oracle.pending())
			}
		}
		for o := 0; o < 3*origins; o++ {
			for q := uint64(0); q <= perOrigin+2; q++ {
				if got, want := window.Seen(topology.NodeID(o), q), oracle.seen(topology.NodeID(o), q); got != want {
					t.Fatalf("run %d: seen(%d, %d) = %v, oracle %v", run, o, q, got, want)
				}
			}
		}
		if window.Pending() != oracle.pending() {
			t.Fatalf("run %d: window holds %d pending seqs, oracle %d", run, window.Pending(), oracle.pending())
		}
	}
}

// TestAllocsDeliveredWindow: once an origin's window exists, marking
// allocates nothing — in order, out of order, duplicated, or sliding the
// window past a gap that never closes.
func TestAllocsDeliveredWindow(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation pins do not hold under the race detector")
	}
	s := new(dataplane.Dedup)
	s.Mark(0, 2) // seq 1 is lost for good: the window opens
	seq := uint64(2)
	if got := testing.AllocsPerRun(5*dataplane.DedupWindow, func() {
		seq++
		s.Mark(0, seq)
		s.Mark(0, seq) // a duplicate copy
	}); got != 0 {
		t.Errorf("marking behind an open gap allocated %.2f times, want 0", got)
	}
	if !s.Seen(0, 1) || s.Pending() > dataplane.DedupWindow {
		t.Errorf("the window never slid past the lost seq: pending %d", s.Pending())
	}
}

// TestForgedOriginIsRejected: a data frame naming an origin outside the
// receiver's ID space — a flood a forger can vary forever — is counted in
// DecodeErrors and goes no further: no delivery, no relay, no dedup
// state. The highest real ID still delivers.
func TestForgedOriginIsRejected(t *testing.T) {
	const procs, forged = 3, 10000
	flood := func(origin topology.NodeID) []byte {
		b, err := wire.Encode(&wire.Frame{Kind: wire.FrameData, Data: &wire.DataMsg{
			Origin: origin, Seq: 1, Root: origin, Body: []byte("flooded")}})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for id := topology.NodeID(0); id < procs; id++ {
		var nbs []topology.NodeID
		for nb := topology.NodeID(0); nb < procs; nb++ {
			if nb != id {
				nbs = append(nbs, nb)
			}
		}
		nd, rec := newRecorded(t, Config{ID: id, NumProcs: procs, Neighbors: nbs})
		from := nbs[0]
		for i := 0; i < forged; i++ {
			origin := topology.NodeID(procs + i)
			if i%2 == 1 {
				origin = topology.NodeID(-1 - i)
			}
			nd.handle(from, flood(origin))
		}
		st := nd.Stats()
		if st.DecodeErrors != forged || st.DataReceived != 0 || st.Delivered != 0 || len(rec.take(t)) != 0 {
			t.Errorf("node %d: DecodeErrors %d, DataReceived %d, Delivered %d; want %d, 0, 0 and no relay",
				id, st.DecodeErrors, st.DataReceived, st.Delivered, forged)
		}
		if origins, windows := nd.core.plane.Seen().Size(); origins != procs || windows != 0 {
			t.Errorf("node %d: forged origins grew the dedup state to %d watermarks and %d windows", id, origins, windows)
		}
		nd.handle(from, flood(procs-1))
		if st := nd.Stats(); st.Delivered != 1 || st.DecodeErrors != forged {
			t.Errorf("node %d: origin %d delivered %d times (DecodeErrors %d), want once", id, procs-1, st.Delivered, st.DecodeErrors)
		}
		stopNode(nd)
	}
}
