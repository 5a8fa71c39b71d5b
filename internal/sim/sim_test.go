package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"adaptivecast/internal/config"
	"adaptivecast/internal/topology"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine(1)
	var fired []int
	e.Schedule(3, func() { fired = append(fired, 3) })
	e.Schedule(1, func() { fired = append(fired, 1) })
	e.Schedule(2, func() { fired = append(fired, 2) })
	e.Run()
	if len(fired) != 3 || fired[0] != 1 || fired[1] != 2 || fired[2] != 3 {
		t.Errorf("fired = %v, want [1 2 3]", fired)
	}
	if e.Now() != 3 {
		t.Errorf("Now = %v, want 3", e.Now())
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	e := NewEngine(1)
	var fired []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { fired = append(fired, i) })
	}
	e.Run()
	if !sort.IntsAreSorted(fired) {
		t.Errorf("same-time events fired out of order: %v", fired)
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine(1)
	var at []Time
	e.Schedule(1, func() {
		at = append(at, e.Now())
		e.Schedule(2, func() { at = append(at, e.Now()) })
	})
	e.Run()
	if len(at) != 2 || at[0] != 1 || at[1] != 3 {
		t.Errorf("times = %v, want [1 3]", at)
	}
}

func TestEngineNegativeDelay(t *testing.T) {
	e := NewEngine(1)
	ran := false
	e.Schedule(-5, func() { ran = true })
	e.Run()
	if !ran {
		t.Error("negative-delay event did not run")
	}
	if e.Now() != 0 {
		t.Errorf("Now = %v, want 0", e.Now())
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	for _, d := range []Time{1, 2, 3, 4} {
		d := d
		e.Schedule(d, func() { fired = append(fired, d) })
	}
	e.RunUntil(2.5)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 1,2 only", fired)
	}
	if e.Now() != 2.5 {
		t.Errorf("Now = %v, want 2.5", e.Now())
	}
	if e.Pending() != 2 {
		t.Errorf("Pending = %d, want 2", e.Pending())
	}
	e.Run()
	if len(fired) != 4 {
		t.Errorf("after Run, fired %v", fired)
	}
}

func TestEngineHalt(t *testing.T) {
	e := NewEngine(1)
	count := 0
	for i := 0; i < 10; i++ {
		e.Schedule(Time(i), func() {
			count++
			if count == 3 {
				e.Halt()
			}
		})
	}
	e.Run()
	if count != 3 {
		t.Errorf("count = %d, want 3", count)
	}
	if e.Pending() != 7 {
		t.Errorf("Pending = %d, want 7", e.Pending())
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func() []float64 {
		e := NewEngine(42)
		var draws []float64
		for i := 0; i < 5; i++ {
			e.Schedule(Time(i), func() { draws = append(draws, e.Rand().Float64()) })
		}
		e.Run()
		return draws
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic draws: %v vs %v", a, b)
		}
	}
}

func newTestNet(t *testing.T, n int, p, l float64, opts Options) (*Network, *Engine) {
	t.Helper()
	g, err := topology.Complete(n)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := config.Uniform(g, p, l)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(7)
	return NewNetwork(eng, cfg, opts), eng
}

func TestReliableDelivery(t *testing.T) {
	net, eng := newTestNet(t, 3, 0, 0, Options{Latency: 1})
	var got []topology.NodeID
	err := net.Register(1, ProcessFunc(func(from topology.NodeID, msg Message) {
		got = append(got, from)
		if msg.Payload.(string) != "hello" {
			t.Errorf("payload = %v", msg.Payload)
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Send(0, 1, Message{Kind: KindData, Size: 10, Payload: "hello"}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if len(got) != 1 || got[0] != 0 {
		t.Errorf("deliveries = %v, want [0]", got)
	}
	if net.Stats().TotalSent() != 1 || net.Stats().Delivered() != 1 {
		t.Errorf("stats: sent=%d delivered=%d", net.Stats().TotalSent(), net.Stats().Delivered())
	}
	if net.Stats().SentBytes(KindData) != 10 {
		t.Errorf("bytes = %d, want 10", net.Stats().SentBytes(KindData))
	}
}

func TestSendOnMissingLinkFails(t *testing.T) {
	g, err := topology.Line(3) // 0-1-2, no 0-2 link
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.New(g)
	net := NewNetwork(NewEngine(1), cfg, Options{})
	if err := net.Send(0, 2, Message{Kind: KindData}); err == nil {
		t.Error("send over missing link should fail")
	}
}

func TestRegisterOutOfRange(t *testing.T) {
	net, _ := newTestNet(t, 3, 0, 0, Options{})
	if err := net.Register(5, ProcessFunc(func(topology.NodeID, Message) {})); err == nil {
		t.Error("expected range error")
	}
	if err := net.Register(-1, ProcessFunc(func(topology.NodeID, Message) {})); err == nil {
		t.Error("expected range error")
	}
}

// TestLossRateMatchesConfig checks the empirical delivery rate against the
// model (1-P)^2 (1-L) — the λ complement the whole paper builds on.
func TestLossRateMatchesConfig(t *testing.T) {
	const (
		p      = 0.1
		l      = 0.2
		trials = 40000
	)
	net, eng := newTestNet(t, 2, p, l, Options{})
	delivered := 0
	if err := net.Register(1, ProcessFunc(func(topology.NodeID, Message) { delivered++ })); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < trials; i++ {
		if err := net.Send(0, 1, Message{Kind: KindData}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	want := (1 - p) * (1 - l) * (1 - p)
	got := float64(delivered) / trials
	if math.Abs(got-want) > 0.01 {
		t.Errorf("delivery rate = %v, want ≈%v", got, want)
	}
}

func TestCrashSuppressesTraffic(t *testing.T) {
	net, eng := newTestNet(t, 3, 0, 0, Options{})
	received := 0
	if err := net.Register(1, ProcessFunc(func(topology.NodeID, Message) { received++ })); err != nil {
		t.Fatal(err)
	}

	net.Crash(1)
	if net.Up(1) {
		t.Error("Up after Crash")
	}
	if err := net.Send(0, 1, Message{Kind: KindData}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if received != 0 {
		t.Error("crashed process received a message")
	}

	// A crashed sender sends nothing and pays nothing.
	if err := net.Send(1, 0, Message{Kind: KindData}); err != nil {
		t.Fatal(err)
	}
	if net.Stats().TotalSent() != 1 {
		t.Errorf("sent = %d, want 1 (crashed sender suppressed)", net.Stats().TotalSent())
	}

	net.Recover(1)
	if err := net.Send(0, 1, Message{Kind: KindData}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if received != 1 {
		t.Errorf("received = %d after recovery, want 1", received)
	}
}

func TestStatsAndReset(t *testing.T) {
	net, eng := newTestNet(t, 3, 0, 0, Options{})
	if err := net.Register(1, ProcessFunc(func(topology.NodeID, Message) {})); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := net.Send(0, 1, Message{Kind: KindHeartbeat, Size: 5}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	s := net.Stats()
	if s.Sent(KindHeartbeat) != 4 || s.Sent(KindData) != 0 || s.SentBytes(KindHeartbeat) != 20 {
		t.Errorf("kind counters wrong: hb=%d (%d B) data=%d", s.Sent(KindHeartbeat), s.SentBytes(KindHeartbeat), s.Sent(KindData))
	}
	if s.TotalSent() != 4 || s.Delivered() != 4 {
		t.Errorf("sent %d, delivered %d; want 4 and 4", s.TotalSent(), s.Delivered())
	}
	s.Reset()
	if s.TotalSent() != 0 || s.Sent(KindHeartbeat) != 0 || s.Delivered() != 0 {
		t.Error("Reset left residue")
	}
}

func TestDisableCrashSampling(t *testing.T) {
	g, err := topology.Complete(2)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := config.Uniform(g, 0.9, 0) // crashes all the time, lossless links
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(3)
	net := NewNetwork(eng, cfg, Options{DisableCrashSampling: true})
	delivered := 0
	if err := net.Register(1, ProcessFunc(func(topology.NodeID, Message) { delivered++ })); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := net.Send(0, 1, Message{Kind: KindData}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if delivered != 100 {
		t.Errorf("delivered = %d, want 100 with crash sampling disabled", delivered)
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindData:      "data",
		KindHeartbeat: "heartbeat",
		KindControl:   "control",
		Kind(99):      "kind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
}

// Property: with any loss probability, the delivered count never exceeds
// the sent count, and with L=0, P=0 every send is delivered.
func TestConservationProperty(t *testing.T) {
	f := func(seed int64, pRaw, lRaw uint8, nMsg uint8) bool {
		p := float64(pRaw%100) / 100
		l := float64(lRaw%100) / 100
		g, err := topology.Complete(2)
		if err != nil {
			return false
		}
		cfg, err := config.Uniform(g, p, l)
		if err != nil {
			return false
		}
		eng := NewEngine(seed)
		net := NewNetwork(eng, cfg, Options{})
		delivered := 0
		if err := net.Register(1, ProcessFunc(func(topology.NodeID, Message) { delivered++ })); err != nil {
			return false
		}
		total := int(nMsg)
		for i := 0; i < total; i++ {
			if err := net.Send(0, 1, Message{Kind: KindData}); err != nil {
				return false
			}
		}
		eng.Run()
		if delivered > total {
			return false
		}
		if p == 0 && l == 0 && delivered != total {
			return false
		}
		return net.Stats().TotalSent() == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
