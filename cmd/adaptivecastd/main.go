// Command adaptivecastd runs one protocol node as a long-lived daemon
// over TCP, configured from a JSON cluster file. It is the deployable
// form of the library: point n daemons at the same cluster file (each
// with its own -id), and they discover link qualities, exchange
// heartbeats, and serve reliable broadcasts.
//
// Usage:
//
//	adaptivecastd -config cluster.json -id 2 [-data /var/lib/adaptivecast]
//
// Cluster file format (see ExampleConfig in config.go):
//
//	{
//	  "k": 0.9999,
//	  "heartbeatMillis": 1000,
//	  "nodes": [
//	    {"id": 0, "addr": "10.0.0.1:7946", "neighbors": [1, 2]},
//	    {"id": 1, "addr": "10.0.0.2:7946", "neighbors": [0, 2]},
//	    {"id": 2, "addr": "10.0.0.3:7946", "neighbors": [0, 1]}
//	  ]
//	}
//
// The daemon broadcasts every line read from stdin and prints every
// delivery to stdout, making it composable with shell pipelines. SIGINT
// and SIGTERM shut it down cleanly.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"adaptivecast"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "adaptivecastd:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("adaptivecastd", flag.ContinueOnError)
	var (
		configPath = fs.String("config", "", "path to the JSON cluster file (required)")
		id         = fs.Int("id", -1, "this node's ID within the cluster file (required)")
		dataDir    = fs.String("data", "", "data directory for stable storage and the exactly-once log (empty = volatile)")
		printCfg   = fs.Bool("print-example-config", false, "print an example cluster file and exit")
		oneShot    = fs.String("broadcast", "", "broadcast this message once nodes are warm, then keep serving")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *printCfg {
		fmt.Fprintln(stdout, ExampleConfig)
		return nil
	}
	if *configPath == "" || *id < 0 {
		return fmt.Errorf("both -config and -id are required (see -print-example-config)")
	}

	cc, err := LoadClusterConfig(*configPath)
	if err != nil {
		return err
	}
	self, err := cc.Node(adaptivecast.NodeID(*id))
	if err != nil {
		return err
	}

	tcp, err := adaptivecast.DialTCP(self.ID, self.Addr, cc.AddressBook(), adaptivecast.TCPOptions{})
	if err != nil {
		return err
	}
	defer func() { _ = tcp.Close() }()

	opts := []adaptivecast.Option{
		adaptivecast.WithK(cc.K),
		adaptivecast.WithHeartbeat(cc.HeartbeatPeriod()),
	}
	if cc.Piggyback {
		opts = append(opts, adaptivecast.WithPiggyback())
	}
	if *dataDir != "" {
		if err := os.MkdirAll(*dataDir, 0o755); err != nil {
			return err
		}
		opts = append(opts, adaptivecast.WithStableStorage(
			adaptivecast.NewFileStorage(filepath.Join(*dataDir, fmt.Sprintf("node-%d.mark", *id)))))
		dlog, err := adaptivecast.OpenExactlyOnceLog(filepath.Join(*dataDir, fmt.Sprintf("node-%d.dedup", *id)))
		if err != nil {
			return err
		}
		defer func() { _ = dlog.Close() }()
		opts = append(opts, adaptivecast.WithExactlyOnceLog(dlog))
	}

	nd, err := adaptivecast.NewNode(tcp, len(cc.Nodes), self.Neighbors, opts...)
	if err != nil {
		return err
	}
	nd.Start()
	defer func() { _ = nd.Close() }()
	fmt.Fprintf(stdout, "node %d up on %s (%d peers, δ=%v, K=%g)\n",
		self.ID, tcp.Addr(), len(cc.Nodes)-1, cc.HeartbeatPeriod(), cc.K)

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigs)

	// stdin lines become broadcasts.
	lines := make(chan string)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(stdin)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()

	if *oneShot != "" {
		if _, err := nd.Broadcast([]byte(*oneShot)); err != nil {
			return err
		}
	}

	// Deliveries are pulled on their own goroutine and printed here, so
	// stdout has one writer.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	deliveries := make(chan adaptivecast.Delivery)
	go func() {
		for {
			d, err := nd.Next(ctx)
			if err != nil {
				return
			}
			select {
			case deliveries <- d:
			case <-ctx.Done():
				return
			}
		}
	}()

	for {
		select {
		case d := <-deliveries:
			fmt.Fprintf(stdout, "deliver origin=%d seq=%d: %s\n", d.Origin, d.Seq, d.Body)
		case line, ok := <-lines:
			if !ok {
				// stdin closed (pipeline ended): keep serving deliveries
				// until signaled.
				lines = nil
				continue
			}
			if r, err := nd.Broadcast([]byte(line)); err != nil {
				fmt.Fprintf(stdout, "broadcast error: %v\n", err)
			} else {
				fmt.Fprintf(stdout, "broadcast planned=%d\n", r.Planned)
			}
		case sig := <-sigs:
			st := nd.Stats()
			fmt.Fprintf(stdout, "shutting down on %v (hb sent %d, recv %d, delivered %d)\n",
				sig, st.HeartbeatsSent, st.HeartbeatsReceived, st.Delivered)
			return nil
		}
	}
}
