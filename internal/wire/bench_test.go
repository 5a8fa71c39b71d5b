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
		e := bayes.New()
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

// BenchmarkHeartbeatEncode appends one delta heartbeat carrying the full
// record set into a warm buffer, the node's per-period encode.
func BenchmarkHeartbeatEncode(b *testing.B) {
	f := &Frame{Kind: FrameKnowledgeDelta, Delta: &KnowledgeDelta{Snap: benchSnapshot(), Ver: 9, Ack: 7}}
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
}

// BenchmarkHeartbeatDecode decodes the same frame, the receive side of
// every heartbeat.
func BenchmarkHeartbeatDecode(b *testing.B) {
	frame, err := Encode(&Frame{Kind: FrameKnowledgeDelta, Delta: &KnowledgeDelta{Snap: benchSnapshot(), Ver: 9, Ack: 7}})
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

// benchView is a 100-process view after one period, the heartbeat payload
// the gob baseline benchmarks encode.
func benchView(b *testing.B) *knowledge.View {
	v, err := knowledge.NewView(0, 100, []topology.NodeID{1, 2, 3, 4}, nil, knowledge.Params{})
	if err != nil {
		b.Fatal(err)
	}
	v.BeginPeriod()
	return v
}

// benchDataMsg is a data message carrying a 100-process tree and its
// allocation, the shape every copy of a planned broadcast has.
func benchDataMsg() *DataMsg {
	m := &DataMsg{Origin: 0, Seq: 42, Root: 0, Body: []byte("benchmark payload 0123456789abcdef"),
		Parents: make([]topology.NodeID, 100), AllocByNode: make([]int32, 100)}
	m.Parents[0] = topology.None
	for v := 1; v < len(m.Parents); v++ {
		m.Parents[v], m.AllocByNode[v] = topology.NodeID((v-1)/3), int32(1+v%3)
	}
	return m
}

// BenchmarkSnapshotEncodeGob / BenchmarkWireDecodeGob /
// BenchmarkWireEncodeDataGob time the gob baseline (EncodeGob, DecodeGob)
// on a heartbeat and a data frame, for comparison with the binary codec.
func BenchmarkSnapshotEncodeGob(b *testing.B) {
	v := benchView(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame, err := EncodeGob(&Frame{Kind: FrameHeartbeat, Heartbeat: v.Snapshot()})
		if err != nil || len(frame) == 0 {
			b.Fatal(len(frame), err)
		}
	}
}

func BenchmarkWireDecodeGob(b *testing.B) {
	frame, err := EncodeGob(&Frame{Kind: FrameHeartbeat, Heartbeat: benchView(b).Snapshot()})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(frame)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeGob(frame); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireEncodeDataGob(b *testing.B) {
	msg := benchDataMsg()
	for i := 0; i < b.N; i++ {
		frame, err := EncodeGob(&Frame{Kind: FrameData, Data: msg})
		if err != nil || len(frame) == 0 {
			b.Fatal(len(frame), err)
		}
	}
}
