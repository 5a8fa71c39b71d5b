package node

import (
	"math/rand"
	"testing"
	"time"

	"adaptivecast/internal/raceflag"
	"adaptivecast/internal/topology"
)

// TestAllocsTick pins a warm heartbeat period at n = 128 at zero: Tick
// takes its outbound list, its cuts, its skip lists and its section
// buffers from the pooled workspace, and its frames from the encode
// pool. teach deals the view's records among the neighbors, so split
// horizon leaves a different share out of each neighbor's frame. The
// cases: every neighbor acked the current view (one shared delta cut of
// the period's changes); every neighbor acked an early version (one cut
// of the whole view, a different subset spliced per neighbor); the
// neighbors acked two different versions (two cuts); and none acked
// anything (the full-snapshot fallback, which leaves nothing out).
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

	// ackAt records neighbor i as having acked version at(i), as their
	// heartbeats would; forgetAll as having acked nothing.
	ackAt := func(at func(i int) uint64) func() {
		return func() {
			nd.mu.Lock()
			defer nd.mu.Unlock()
			for i, nb := range nd.nbs {
				nd.peerAcked[nb] = at(i)
			}
		}
	}
	current := func(int) uint64 { return nd.view.Version() }
	early := func(int) uint64 { return 1 } // before every taught record's stamp
	mixed := func(i int) uint64 {
		if i%2 == 0 {
			return early(i)
		}
		return current(i)
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
	perFrame := map[string]float64{}
	for _, c := range []struct {
		name      string
		acks      func()
		wantDelta bool
	}{
		{"acked", ackAt(current), true},
		{"acked early", ackAt(early), true},
		{"acked two versions", ackAt(mixed), true},
		{"full-snapshot fallback", forgetAll, false},
	} {
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
		perFrame[c.name] = float64(st.HeartbeatBytesSent-before.HeartbeatBytesSent) / float64(sent)
	}
	// A delta of the whole view is the full snapshot less what each
	// neighbor supplied — about one record in degree — so it must be
	// clearly smaller than the full-snapshot frame.
	if early, full := perFrame["acked early"], perFrame["full-snapshot fallback"]; early > full*(1-0.5/float64(degree)) {
		t.Errorf("a delta of the whole view averaged %.0f B a frame against %.0f B for the full snapshot: split horizon left nothing out", early, full)
	}
	t.Logf("bytes a frame: %v", perFrame)
	if st := nd.Stats(); st.SendFailures != 0 {
		t.Errorf("%d flushes failed", st.SendFailures)
	}
}
