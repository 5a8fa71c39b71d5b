// Exactlyonce: the paper's Section 2.2 remark made concrete. The reliable
// broadcast primitive guarantees delivery with probability K, but across
// crashes a process may see the same message again; "such a guarantee
// [exactly-once] can be built on top of our reliable broadcast primitive"
// with local logging. This example crashes a consumer node mid-stream,
// restarts it with its durable exactly-once log (the public
// WithExactlyOnceLog option), replays the stream, and shows that every
// message is processed exactly once.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"adaptivecast"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	dir, err := os.MkdirTemp("", "exactlyonce")
	if err != nil {
		return err
	}
	defer func() {
		if rerr := os.RemoveAll(dir); rerr != nil {
			log.Print(rerr)
		}
	}()
	logPath := filepath.Join(dir, "consumer.dedup")

	g, err := adaptivecast.Line(2) // producer 0 — consumer 1
	if err != nil {
		return err
	}

	// ---- First incarnation of the consumer ----------------------------
	fabric := adaptivecast.NewFabric(adaptivecast.FabricOptions{})
	producer, consumer, dlog, err := buildPair(g, fabric, logPath)
	if err != nil {
		return err
	}

	fmt.Println("producing events 1..3; consumer is healthy")
	for i := 1; i <= 3; i++ {
		if _, err := producer.Broadcast([]byte(fmt.Sprintf("event-%d", i))); err != nil {
			return err
		}
	}
	consume(consumer, 3)

	fmt.Println("\n*** consumer crashes (volatile state lost, dedup log survives) ***")
	_ = consumer.Close()
	_ = producer.Close()
	if err := dlog.Close(); err != nil {
		return err
	}
	if err := fabric.Close(); err != nil {
		return err
	}

	// ---- Second incarnation -------------------------------------------
	fabric2 := adaptivecast.NewFabric(adaptivecast.FabricOptions{})
	defer func() { _ = fabric2.Close() }()
	producer2, consumer2, dlog2, err := buildPair(g, fabric2, logPath)
	if err != nil {
		return err
	}
	defer func() {
		_ = consumer2.Close()
		_ = producer2.Close()
		_ = dlog2.Close()
	}()

	fmt.Println("producer replays events 1..3 (sender also restarted), then sends 4..5")
	for i := 1; i <= 5; i++ {
		if _, err := producer2.Broadcast([]byte(fmt.Sprintf("event-%d", i))); err != nil {
			return err
		}
	}
	consume(consumer2, 2)
	time.Sleep(50 * time.Millisecond)
	st := consumer2.Stats()
	fmt.Printf("\nconsumer after restart: delivered %d new, suppressed %d replays\n",
		st.Delivered, st.SuppressedReplays)
	if st.SuppressedReplays != 3 {
		return fmt.Errorf("expected 3 suppressed replays, got %d", st.SuppressedReplays)
	}
	fmt.Println("events 1-3 were each processed exactly once across the crash ✓")
	return nil
}

// buildPair wires the producer and the log-backed consumer over a fabric,
// using only the public constructors.
func buildPair(g *adaptivecast.Topology, fabric *adaptivecast.Fabric, logPath string) (*adaptivecast.Node, *adaptivecast.Node, *adaptivecast.ExactlyOnceLog, error) {
	dlog, err := adaptivecast.OpenExactlyOnceLog(logPath)
	if err != nil {
		return nil, nil, nil, err
	}
	producer, err := adaptivecast.NewNode(fabric.Endpoint(0), 2, g.Neighbors(0))
	if err != nil {
		return nil, nil, nil, err
	}
	consumer, err := adaptivecast.NewNode(fabric.Endpoint(1), 2, g.Neighbors(1),
		adaptivecast.WithExactlyOnceLog(dlog))
	if err != nil {
		return nil, nil, nil, err
	}
	return producer, consumer, dlog, nil
}

// consume prints up to n deliveries (with a timeout safety net).
func consume(consumer *adaptivecast.Node, n int) {
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	for i := 0; i < n; i++ {
		d, err := consumer.Next(ctx)
		if err != nil {
			fmt.Println("  (no more deliveries)")
			return
		}
		fmt.Printf("  consumer processed %q (origin %d seq %d)\n", d.Body, d.Origin, d.Seq)
	}
}
