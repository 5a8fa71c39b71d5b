package node

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"adaptivecast/internal/queue"
	"adaptivecast/internal/raceflag"
	"adaptivecast/internal/transport"
)

// loneNode is process 0 of a one-process ID space: every Broadcast is a
// local delivery and nothing else.
func loneNode(t *testing.T, cfg Config) *Node {
	t.Helper()
	fabric := transport.NewFabric(transport.FabricOptions{})
	t.Cleanup(func() { _ = fabric.Close() })
	cfg.ID, cfg.NumProcs = 0, 1
	return newTestNode(t, cfg, fabric.Endpoint(0))
}

// TestDeliveryByteBoundDropsOncePerDelivery: a delivery that would take
// the queue over its byte bound fires OnDrop and counts one
// DroppedDeliveries, exactly once each; one that fits fires OnDeliver.
// Taking a delivery gives its bytes back to the bound.
func TestDeliveryByteBoundDropsOncePerDelivery(t *testing.T) {
	body := make([]byte, 100)
	one := deliveryBytes(Delivery{Body: body})
	var delivers, drops atomic.Int64
	nd := loneNode(t, Config{
		DeliveryBuffer: 3 * one,
		Hooks: Hooks{
			OnDeliver: func(Delivery) { delivers.Add(1) },
			OnDrop:    func(Delivery) { drops.Add(1) },
		},
	})
	for i := 0; i < 10; i++ {
		if _, _, err := nd.Broadcast(body); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := nd.Broadcast(make([]byte, 4*one)); err != nil { // heavier than the whole bound
		t.Fatal(err)
	}
	st := nd.Stats()
	if st.Delivered != 3 || st.DroppedDeliveries != 8 || delivers.Load() != 3 || drops.Load() != 8 {
		t.Fatalf("Delivered %d, DroppedDeliveries %d, OnDeliver %d, OnDrop %d; want 3, 8, 3, 8",
			st.Delivered, st.DroppedDeliveries, delivers.Load(), drops.Load())
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if d := waitDelivery(t, nd); d.Seq != seq {
			t.Fatalf("took seq %d, want %d", d.Seq, seq)
		}
	}
	if _, _, err := nd.Broadcast(body); err != nil {
		t.Fatal(err)
	}
	if st := nd.Stats(); st.Delivered != 4 || st.DroppedDeliveries != 8 {
		t.Fatalf("after the queue drained: Delivered %d, DroppedDeliveries %d; want 4 and 8", st.Delivered, st.DroppedDeliveries)
	}
}

// TestNextBlocksUntilDeliveryOrDone: Next waits for a delivery that has
// not arrived yet, gives up with ctx's error, and after Stop hands out
// what was queued before ErrStopped.
func TestNextBlocksUntilDeliveryOrDone(t *testing.T) {
	nd := loneNode(t, Config{})
	got := make(chan Delivery, 1)
	go func() {
		d, err := nd.Next(context.Background())
		if err == nil {
			got <- d
		}
		close(got)
	}()
	if _, _, err := nd.Broadcast([]byte("late")); err != nil {
		t.Fatal(err)
	}
	if d, ok := <-got; !ok || string(d.Body) != "late" {
		t.Fatalf("a waiting Next returned %+v, %v", d, ok)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if _, err := nd.Next(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Next on an empty queue returned %v, want the deadline", err)
	}

	for _, b := range []string{"a", "b"} {
		if _, _, err := nd.Broadcast([]byte(b)); err != nil {
			t.Fatal(err)
		}
	}
	stopNode(nd)
	for _, want := range []string{"a", "b"} {
		if d := waitDelivery(t, nd); string(d.Body) != want {
			t.Fatalf("after Stop took %q, want %q", d.Body, want)
		}
	}
	if _, err := nd.Next(context.Background()); !errors.Is(err, ErrStopped) {
		t.Fatalf("Next on a stopped, drained node returned %v, want ErrStopped", err)
	}
}

// deliveryQueueBudget is the heap an idle node's delivery queue may hold.
// A preallocated 128-slot channel of 48-byte deliveries made it about
// 6.2 KiB.
const deliveryQueueBudget = 1 << 10

// TestIdleDeliveryQueueFootprint pins what the delivery queue of a node
// that has delivered nothing costs: 1,024 queues set up the way New sets
// up a node's, and the heap they hold after a collection divided among
// them.
func TestIdleDeliveryQueueFootprint(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's shadow memory inflates the heap")
	}
	const queues = 1 << 10
	qs := make([]*queue.Ring[Delivery], queues)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range qs {
		qs[i] = new(queue.Ring[Delivery])
		qs[i].Init(DefaultDeliveryBuffer, deliveryBytes)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perQueue := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / queues
	runtime.KeepAlive(qs)
	t.Logf("an idle delivery queue holds %d bytes of heap", perQueue)
	if perQueue > deliveryQueueBudget {
		t.Errorf("an idle delivery queue holds %d bytes of heap, budget %d", perQueue, deliveryQueueBudget)
	}
}
