package wire

import (
	"math/rand"
	"testing"

	"adaptivecast/internal/bayes"
	"adaptivecast/internal/knowledge"
	"adaptivecast/internal/topology"
)

// benchSnapshot is a full heartbeat payload of a 128-process view at the
// paper's U = 100: one record per process and 212 links, each holding a
// few hundred observations — the shape the fabric128-hb workload ships.
func benchSnapshot() *knowledge.Snapshot {
	rng := rand.New(rand.NewSource(128))
	est := func() bayes.State {
		e := bayes.MustNew(bayes.DefaultIntervals)
		e.ObserveFailure(rng.Intn(20))
		e.ObserveSuccess(100 + rng.Intn(400))
		return e.State()
	}
	s := &knowledge.Snapshot{From: 1, Seq: 500}
	for i := 0; i < 128; i++ {
		s.Procs = append(s.Procs, knowledge.ProcRecord{ID: topology.NodeID(i), Dist: rng.Intn(6), Est: est()})
	}
	for i := 0; i < 212; i++ {
		a := topology.NodeID(rng.Intn(127))
		s.Links = append(s.Links, knowledge.LinkRecord{
			Link: topology.Link{A: a, B: a + 1 + topology.NodeID(rng.Intn(int(127-a)))},
			Dist: rng.Intn(6), Est: est(),
		})
	}
	return s
}

var benchLayouts = []struct {
	name string
	caps uint64
}{{"raw", 0}, {"counts", CapsCounts}}

// BenchmarkHeartbeatEncode appends one delta heartbeat carrying the full
// record set into a warm buffer, the node's per-period encode.
func BenchmarkHeartbeatEncode(b *testing.B) {
	snap := benchSnapshot()
	for _, layout := range benchLayouts {
		b.Run(layout.name, func(b *testing.B) {
			f := &Frame{Kind: FrameKnowledgeDelta, Delta: &KnowledgeDelta{Snap: snap, Ver: 9, Ack: 7, Caps: layout.caps}}
			buf, err := AppendFrame(nil, f)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if buf, err = AppendFrame(buf[:0], f); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHeartbeatDecode decodes the same frame, the receive side of
// every heartbeat.
func BenchmarkHeartbeatDecode(b *testing.B) {
	snap := benchSnapshot()
	for _, layout := range benchLayouts {
		b.Run(layout.name, func(b *testing.B) {
			frame, err := Encode(&Frame{Kind: FrameKnowledgeDelta, Delta: &KnowledgeDelta{Snap: snap, Ver: 9, Ack: 7, Caps: layout.caps}})
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(frame)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Decode(frame); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecodeData decodes one 32-process tree frame, the receive side
// of every data copy: into fresh storage (Decode, what tools and tests
// use) and into reused storage (Scratch, what the node's handler uses).
func BenchmarkDecodeData(b *testing.B) {
	frame := treeFrame(b, 32, 7, "payload of a broadcast")
	var sc Scratch
	for _, c := range []struct {
		name   string
		decode func([]byte) (*Frame, error)
	}{{"fresh", Decode}, {"reused", sc.DecodeBorrow}} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(frame)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.decode(frame); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
