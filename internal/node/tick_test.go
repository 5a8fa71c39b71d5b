package node

import (
	"math/rand"
	"testing"
	"time"

	"adaptivecast/internal/raceflag"
	"adaptivecast/internal/topology"
)

// TestAllocsTick pins a warm heartbeat period at n = 128 at zero: Tick
// takes its outbound list, its cuts and its section buffers from the
// pooled workspace, and its frames from the encode pool, both when every
// neighbor has acked the view — one shared delta cut — and when none has
// and the period falls back to the full snapshot.
func TestAllocsTick(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation pins do not hold under the race detector")
	}
	rng := rand.New(rand.NewSource(61))
	g, err := topology.RandomConnected(128, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	nd := newTestNode(t, Config{ID: 0, NumProcs: 128, Neighbors: g.Neighbors(0)}, &sinkTransport{id: 0})
	teach(t, nd, g, rng)
	degree := len(nd.Neighbors())

	// ackAll records every neighbor as having acked the current view, as
	// their heartbeats would; forgetAll as having acked nothing.
	ackAll := func() {
		nd.mu.Lock()
		defer nd.mu.Unlock()
		for _, nb := range nd.nbs {
			nd.peerAcked[nb] = nd.view.Version()
		}
	}
	forgetAll := func() { forgetAcks([]*Node{nd}) }
	period := func(acks func()) func() {
		return func() {
			acks()
			nd.Tick()
			if !nd.WaitSendIdle(5 * time.Second) {
				t.Fatal("the period's heartbeats never left the lanes")
			}
		}
	}

	const runs = 50
	for _, c := range []struct {
		name      string
		acks      func()
		wantDelta bool
	}{{"acked", ackAll, true}, {"full-snapshot fallback", forgetAll, false}} {
		tick := period(c.acks)
		for i := 0; i < 4; i++ {
			tick() // workspace, encode pool and lane queues warm
		}
		before := nd.Stats()
		if got := testing.AllocsPerRun(runs, tick); got != 0 {
			t.Errorf("%s: a warm Tick toward %d neighbors allocated %.2f times, want 0", c.name, degree, got)
		}
		st := nd.Stats()
		sent := st.HeartbeatsSent - before.HeartbeatsSent
		deltas := st.DeltaHeartbeatsSent - before.DeltaHeartbeatsSent
		if want := (runs + 1) * degree; sent != want || (deltas == sent) != c.wantDelta || (deltas == 0) == c.wantDelta {
			t.Errorf("%s: %d heartbeats sent, %d of them deltas; want %d, all of them deltas: %v", c.name, sent, deltas, want, c.wantDelta)
		}
	}
	if st := nd.Stats(); st.SendFailures != 0 {
		t.Errorf("%d flushes failed", st.SendFailures)
	}
}
