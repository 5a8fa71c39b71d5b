package adaptivecast

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"
)

func TestClusterValidation(t *testing.T) {
	if _, err := NewCluster(ClusterConfig{}); err == nil {
		t.Error("nil topology should fail")
	}
	disc := NewTopology(3)
	if _, err := disc.AddLink(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := NewCluster(ClusterConfig{Topology: disc}); err == nil {
		t.Error("disconnected topology should fail")
	}
	ring, err := Ring(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCluster(ClusterConfig{
		Topology: ring,
		LinkLoss: map[Link]float64{NewLink(0, 2): 0.5}, // not a ring link
	}); err == nil {
		t.Error("loss on missing link should fail")
	}
	for _, loss := range []float64{1.5, math.NaN()} {
		if c, err := NewCluster(ClusterConfig{
			Topology: ring,
			LinkLoss: map[Link]float64{NewLink(0, 1): loss},
		}); err == nil {
			_ = c.Close()
			t.Errorf("loss probability %v should fail", loss)
		}
	}
	for _, k := range []float64{1, math.NaN()} {
		if c, err := NewCluster(ClusterConfig{Topology: ring, K: k}); err == nil {
			_ = c.Close()
			t.Errorf("K=%v should fail", k)
		}
	}
	fabric := NewFabric(FabricOptions{})
	defer func() { _ = fabric.Close() }()
	if n, err := NewNode(fabric.Endpoint(0), 4, []NodeID{1, 3}, WithK(math.NaN())); err == nil {
		_ = n.Close()
		t.Error("WithK(NaN) should fail")
	}
}

func TestClusterBroadcastQuickstart(t *testing.T) {
	ring, err := Ring(6)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(ClusterConfig{Topology: ring})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := c.Close(); err != nil {
			t.Error(err)
		}
	}()

	// Exchange knowledge until everyone discovered the ring.
	for p := 0; p < 10; p++ {
		c.Tick()
		time.Sleep(2 * time.Millisecond)
	}
	for i := 0; i < c.NumNodes(); i++ {
		if got := len(c.KnownLinks(NodeID(i))); got != 6 {
			t.Fatalf("node %d knows %d links, want 6", i, got)
		}
	}

	_, planned, err := c.Broadcast(0, []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if planned < 5 {
		t.Errorf("planned = %d, want >= n-1", planned)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 0; i < c.NumNodes(); i++ {
		d, err := c.Node(NodeID(i)).Next(ctx)
		if err != nil {
			t.Fatalf("node %d never delivered: %v", i, err)
		}
		if string(d.Body) != "hello" || d.Origin != 0 {
			t.Errorf("node %d delivery = %+v", i, d)
		}
	}
	if c.Stats(0).FallbackFloods != 0 {
		t.Error("flooded despite discovered topology")
	}
}

func TestClusterLearnsInjectedLoss(t *testing.T) {
	line, err := Line(2)
	if err != nil {
		t.Fatal(err)
	}
	const loss = 0.25
	c, err := NewCluster(ClusterConfig{
		Topology: line,
		LinkLoss: map[Link]float64{NewLink(0, 1): loss},
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	for p := 0; p < 1200; p++ {
		c.Tick()
		if p%100 == 99 {
			time.Sleep(time.Millisecond)
		}
	}
	time.Sleep(10 * time.Millisecond)
	got, _, ok := c.LossEstimate(0, NewLink(0, 1))
	if !ok {
		t.Fatal("link unknown")
	}
	if math.Abs(got-loss) > 0.07 {
		t.Errorf("loss estimate = %v, want ≈%v", got, loss)
	}
}

func TestClusterStartStopsCleanly(t *testing.T) {
	ring, err := Ring(4)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(ClusterConfig{Topology: ring, HeartbeatEvery: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	time.Sleep(30 * time.Millisecond)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// Heartbeats flowed while running.
	if c.Stats(0).HeartbeatsSent == 0 {
		t.Error("no heartbeats sent under Start")
	}
	if _, _, err := c.Broadcast(0, []byte("x")); err == nil {
		t.Error("broadcast after Close should fail")
	}
	if _, _, err := c.Broadcast(99, nil); err == nil {
		t.Error("out-of-range node should fail")
	}
}

func TestTopologyHelpers(t *testing.T) {
	for name, build := range map[string]func() (*Topology, error){
		"ring":     func() (*Topology, error) { return Ring(5) },
		"line":     func() (*Topology, error) { return Line(5) },
		"star":     func() (*Topology, error) { return Star(5) },
		"complete": func() (*Topology, error) { return Complete(5) },
		"grid":     func() (*Topology, error) { return Grid(2, 3) },
	} {
		g, err := build()
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if !g.Connected() {
			t.Errorf("%s disconnected", name)
		}
	}
	g, bridges, err := Clustered(2, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 6 || len(bridges) != 1 {
		t.Errorf("clustered shape wrong: %d nodes, %d bridges", g.NumNodes(), len(bridges))
	}
}

func ExampleCluster() {
	ring, err := Ring(5)
	if err != nil {
		fmt.Println(err)
		return
	}
	cluster, err := NewCluster(ClusterConfig{Topology: ring})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer func() { _ = cluster.Close() }()

	// Let the nodes discover the topology, then broadcast.
	for i := 0; i < 10; i++ {
		cluster.Tick()
		time.Sleep(2 * time.Millisecond)
	}
	if _, _, err := cluster.Broadcast(0, []byte("hello, cluster")); err != nil {
		fmt.Println(err)
		return
	}
	d, err := cluster.Node(3).Next(context.Background())
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("node 3 got %q from node %d\n", d.Body, d.Origin)
	// Output: node 3 got "hello, cluster" from node 0
}
