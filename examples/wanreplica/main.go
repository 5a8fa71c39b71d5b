// Wanreplica: the paper's introductory scenario — parts of the system are
// connected by reliable LAN links and parts by lossy WAN links, and an
// environment-adapted algorithm routes around the bad paths.
//
// Two datacenters of 4 nodes each are bridged by two WAN links: one decent
// (2% loss) and one terrible (25% loss). After the knowledge layer
// converges, every broadcast's Maximum Reliability Tree crosses the ocean
// over the good bridge, and the allocator spends extra copies only where
// they are needed.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"adaptivecast"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Two complete clusters of 4, chained by 2 bridges:
	// bridge A: 0—4, bridge B: 1—5 (Clustered links consecutive IDs).
	topo, bridges, err := adaptivecast.Clustered(2, 4, 2)
	if err != nil {
		return err
	}
	goodBridge := topo.Link(bridges[0]) // 0—4
	badBridge := topo.Link(bridges[1])  // 1—5

	cluster, err := adaptivecast.NewCluster(adaptivecast.ClusterConfig{
		Topology:       topo,
		HeartbeatEvery: 5 * time.Millisecond,
		LinkLoss: map[adaptivecast.Link]float64{
			goodBridge: 0.02,
			badBridge:  0.25,
		},
		Seed: 42,
	})
	if err != nil {
		return err
	}
	defer func() {
		if cerr := cluster.Close(); cerr != nil {
			log.Print(cerr)
		}
	}()

	fmt.Println("learning link qualities (this takes a few hundred heartbeats)...")
	cluster.Start()
	waitUntilLearned(cluster, goodBridge, badBridge)

	good, _, _ := cluster.LossEstimate(0, goodBridge)
	bad, _, _ := cluster.LossEstimate(0, badBridge)
	fmt.Printf("node 0 estimates: bridge %v ≈ %.3f loss, bridge %v ≈ %.3f loss\n",
		goodBridge, good, badBridge, bad)

	// Broadcast a replicated write from datacenter 1, bounded by a
	// context like any other replicated-write path would be.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	r, err := cluster.Node(0).BroadcastCtx(ctx, []byte("SET inventory[widget] = 41"))
	if err != nil {
		return err
	}
	fmt.Printf("broadcast #%d planned %d data messages for %d nodes\n",
		r.Seq, r.Planned, cluster.NumNodes())

	applied, stop := context.WithTimeout(context.Background(), 10*time.Second)
	defer stop()
	for i := 0; i < cluster.NumNodes(); i++ {
		d, err := cluster.Node(adaptivecast.NodeID(i)).Next(applied)
		if err != nil {
			return fmt.Errorf("node %d did not deliver: %w", i, err)
		}
		dc := "dc-1"
		if i >= 4 {
			dc = "dc-2"
		}
		fmt.Printf("  %s node %d applied %q\n", dc, i, d.Body)
	}
	fmt.Println("\nthe MRT crossed the WAN over the more reliable bridge;")
	fmt.Println("a traditional gossip would have kept spraying the 25%-loss link.")
	return nil
}

// waitUntilLearned blocks until node 0's estimates clearly separate the
// two bridges (or a generous deadline passes).
func waitUntilLearned(c *adaptivecast.Cluster, good, bad adaptivecast.Link) {
	deadline := time.After(30 * time.Second)
	for {
		select {
		case <-deadline:
			return
		case <-time.After(100 * time.Millisecond):
		}
		g, _, ok1 := c.LossEstimate(0, good)
		b, _, ok2 := c.LossEstimate(0, bad)
		if ok1 && ok2 && b > 0.15 && g < 0.10 {
			return
		}
	}
}
