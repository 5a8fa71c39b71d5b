package heartbeat

import (
	"math"
	"testing"

	"adaptivecast/internal/bayes"
	"adaptivecast/internal/knowledge"
	"adaptivecast/internal/topology"
	"adaptivecast/internal/wire"
)

// planeProc is one process of a hand-run heartbeat exchange: its view,
// its plane, its neighbours, and the full snapshot of its view at every
// version a period's Cut left it at.
type planeProc struct {
	view  *knowledge.View
	plane *Plane
	nbs   []topology.NodeID
	at    map[uint64]*knowledge.Snapshot
}

func newPlaneProc(t *testing.T, self topology.NodeID, n int, nbs ...topology.NodeID) *planeProc {
	t.Helper()
	v, err := knowledge.NewView(self, n, nbs, nil, knowledge.Params{})
	if err != nil {
		t.Fatal(err)
	}
	return &planeProc{view: v, plane: New(v), nbs: nbs, at: map[uint64]*knowledge.Snapshot{}}
}

// holds checks the invariant View.DeltaTo documents, as peer's plane
// comes to ack version acked of sender's view: peer holds every record
// sender had at that version either within DeltaEpsilon of the mean
// sender had, or at a distortion no greater than sender's.
func holds(t *testing.T, period int, sender, peer *planeProc, acked uint64) {
	t.Helper()
	if acked == 0 {
		return
	}
	want, ok := sender.at[acked]
	if !ok {
		t.Fatalf("period %d: %d acked version %d of %d's view, which no Cut left it at",
			period, peer.view.Self(), acked, sender.view.Self())
	}
	const eps = 1e-4 // knowledge.Params' default DeltaEpsilon
	mean := func(s bayes.State) float64 {
		e, err := bayes.NewFromState(s)
		if err != nil {
			t.Fatal(err)
		}
		return e.Mean()
	}
	for _, r := range want.Procs {
		m, d := peer.view.CrashEstimate(r.ID)
		if d > r.Dist && math.Abs(m-mean(r.Est)) > eps {
			t.Errorf("period %d: %d acked %d's version %d, but holds process %d at (%.6f, dist %d) against (%.6f, dist %d)",
				period, peer.view.Self(), sender.view.Self(), acked, r.ID, m, d, mean(r.Est), r.Dist)
		}
	}
	for _, r := range want.Links {
		m, d, ok := peer.view.LossEstimate(r.Link)
		if !ok || d > r.Dist && math.Abs(m-mean(r.Est)) > eps {
			t.Errorf("period %d: %d acked %d's version %d, but holds link %v at (%.6f, dist %d, known %v) against (%.6f, dist %d)",
				period, peer.view.Self(), sender.view.Self(), acked, r.Link, m, d, ok, mean(r.Est), r.Dist)
		}
	}
}

// TestPlaneAckChain drives Cut, Receive and Reset between three views by
// hand: the line 0 — 1 for 12 periods, then process 2 joins at 1, every
// plane that was running resets, and the line 0 — 1 — 2 runs 18 periods
// more. One frame is lost before the join (1 → 0 in period 5) and one
// after it (2 → 1 in period 17). Whenever a frame moves a receiver's
// ack forward to the sender's version V, the receiver holds what the
// invariant documented at View.DeltaTo promises for V. After the loss
// the chain keeps going on deltas, cut against the last acked base, and
// after the reset every frame is the full snapshot until an ack anchors
// a delta again.
func TestPlaneAckChain(t *testing.T) {
	procs := []*planeProc{newPlaneProc(t, 0, 2, 1), newPlaneProc(t, 1, 2, 0)}
	lost := map[[3]int]bool{{5, 1, 0}: true, {17, 2, 1}: true}
	const join, periods = 12, 30
	var ws Period
	for period := 1; period <= periods; period++ {
		if period == join+1 {
			for _, p := range procs {
				p.view.Grow(3)
				p.plane.Reset()
			}
			if err := procs[1].view.AddNeighbor(2); err != nil {
				t.Fatal(err)
			}
			procs[1].nbs = append(procs[1].nbs, 2)
			procs = append(procs, newPlaneProc(t, 2, 3, 1))
		}
		type sent struct {
			from, to topology.NodeID
			frame    []byte
			since    uint64
		}
		var frames []sent
		for _, p := range procs {
			p.plane.Cut(&ws, p.nbs)
			p.at[p.view.Version()] = p.view.Snapshot()
			for i, o := range ws.Outbound() {
				b, err := ws.AppendFrame(nil, i, 0)
				if err != nil {
					t.Fatal(err)
				}
				frames = append(frames, sent{p.view.Self(), o.To, b, o.Since})
			}
			ws.Reset()
		}
		for _, f := range frames {
			switch {
			case period == join+1 && f.since != 0:
				t.Errorf("period %d: %d → %d is a delta from %d right after the reset, want the full snapshot", period, f.from, f.to, f.since)
			case period == 5+1 && f.from == 1 && f.to == 0 && f.since == 0:
				t.Errorf("period %d: %d → %d fell back to the full snapshot after one lost frame", period, f.from, f.to)
			case period >= join+3 && f.since == 0:
				t.Errorf("period %d: %d → %d is still the full snapshot two periods after the reset", period, f.from, f.to)
			}
			if lost[[3]int{period, int(f.from), int(f.to)}] {
				continue
			}
			fr, err := wire.Decode(f.frame)
			if err != nil || fr.Kind != wire.FrameKnowledgeDelta {
				t.Fatalf("period %d: frame %d → %d decodes to %v (%v)", period, f.from, f.to, fr, err)
			}
			to, from := procs[f.to], procs[f.from]
			if err := to.plane.Receive(f.from, fr.Delta); err != nil {
				t.Fatalf("period %d: %d refused %d's frame: %v", period, f.to, f.from, err)
			}
			// The check runs where View.DeltaTo's invariant holds: as the
			// receiver merges V. By the time the sender reads the ack, the
			// receiver's BeginPeriod may have booked Event 2 on a lost
			// frame (1 → 0 in period 5) and aged its copy of the sender's
			// process record; forgive undoes that on the next frame.
			if v := to.plane.Seen(f.from); v == fr.Delta.Ver {
				holds(t, period, from, to, v)
			}
		}
	}
	for _, p := range procs {
		for _, nb := range p.nbs {
			if p.plane.Acked(nb) == 0 || p.plane.Seen(nb) == 0 {
				t.Errorf("%d ends with acked %d, seen %d toward %d: the chain never re-anchored",
					p.view.Self(), p.plane.Acked(nb), p.plane.Seen(nb), nb)
			}
		}
		if got := p.plane.Peers(); got != 2*len(p.nbs) {
			t.Errorf("%d's plane keeps %d entries for %d neighbours", p.view.Self(), got, len(p.nbs))
		}
	}
}
