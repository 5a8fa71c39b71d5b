package adaptivecast

import (
	"testing"

	"adaptivecast/internal/raceflag"
)

// handDriven is a lone node whose dispatcher goroutine never starts, so a
// test can call dispatch itself.
func handDriven(t *testing.T) *Node {
	t.Helper()
	f := NewFabric(FabricOptions{})
	n, err := NewNode(f.Endpoint(0), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.Close() })
	n.dispatching = true
	return n
}

// TestDispatchSeesASnapshotOfTheSubscribers: the subscriber slice is
// copy-on-write, so a handler that cancels and subscribes while a
// delivery is being dispatched changes the next delivery, not this one.
func TestDispatchSeesASnapshotOfTheSubscribers(t *testing.T) {
	n := handDriven(t)
	var calls []string
	var cancelB func()
	n.Subscribe(func(Delivery) {
		calls = append(calls, "a")
		if cancelB != nil {
			cancelB()
			cancelB = nil
			n.Subscribe(func(Delivery) { calls = append(calls, "c") })
		}
	})
	cancelB = n.Subscribe(func(Delivery) { calls = append(calls, "b") })
	n.dispatch(Delivery{})
	n.dispatch(Delivery{})
	if got := len(calls); got != 4 || calls[1] != "b" || calls[3] != "c" {
		t.Fatalf("handlers ran %v, want [a b a c]", calls)
	}
}

// TestAllocsDispatch: handing a delivery to the subscribers allocates
// nothing — one per delivery per node was 32 of a 32-process broadcast's
// allocations.
func TestAllocsDispatch(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation pins do not hold under the race detector")
	}
	n := handDriven(t)
	seen := 0
	n.Subscribe(func(Delivery) { seen++ })
	cancel := n.Subscribe(func(Delivery) { seen++ })
	n.Subscribe(func(Delivery) { seen++ })
	cancel()
	d := Delivery{Origin: 0, Seq: 1, Body: []byte("x")}
	if got := testing.AllocsPerRun(200, func() { n.dispatch(d) }); got != 0 {
		t.Fatalf("dispatch allocated %.1f times per delivery, want 0", got)
	}
	if seen != 2*201 {
		t.Fatalf("two live subscribers saw %d deliveries of 201", seen)
	}
}
