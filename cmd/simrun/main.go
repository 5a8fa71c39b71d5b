// Command simrun runs one simulated configuration end to end and prints a
// comparison of the three algorithms on it:
//
//   - the reference gossip baseline (Monte-Carlo, run to quiescence),
//   - the optimal algorithm (perfect knowledge, Algorithm 1),
//   - the adaptive algorithm (knowledge learned from heartbeats), with
//     the convergence effort it spent.
//
// Usage:
//
//	simrun -n 100 -conn 8 -p 0.01 -l 0.03 -k 0.9999 -seed 1
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"adaptivecast/internal/broadcast"
	"adaptivecast/internal/config"
	"adaptivecast/internal/dataplane"
	"adaptivecast/internal/experiments"
	"adaptivecast/internal/gossip"
	"adaptivecast/internal/knowledge"
	"adaptivecast/internal/sim"
	"adaptivecast/internal/topology"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "simrun:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("simrun", flag.ContinueOnError)
	var (
		n     = fs.Int("n", 100, "number of processes")
		conn  = fs.Int("conn", 8, "links per process")
		p     = fs.Float64("p", 0.01, "per-step crash probability P")
		l     = fs.Float64("l", 0.03, "per-transmission loss probability L")
		k     = fs.Float64("k", dataplane.DefaultK, "reliability target K")
		seed  = fs.Int64("seed", 1, "random seed")
		runs  = fs.Int("gossip-runs", 20, "Monte-Carlo runs for the reference algorithm")
		maxPd = fs.Int("max-periods", 5000, "convergence period budget")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(*seed))
	g, err := topology.RandomConnected(*n, *conn, rng)
	if err != nil {
		return err
	}
	truth, err := config.Uniform(g, *p, *l)
	if err != nil {
		return err
	}
	root := topology.NodeID(rng.Intn(*n))
	fmt.Fprintf(out, "configuration: n=%d conn=%d (|Λ|=%d) P=%g L=%g K=%g root=%d seed=%d\n\n",
		*n, *conn, g.NumLinks(), *p, *l, *k, root, *seed)

	// Reference gossip.
	ref, err := gossip.MeanCost(truth, root, rng, *runs, gossip.Options{})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "reference gossip:   %8.1f data msgs  (+%.1f acks, %.1f rounds, %d runs)\n",
		ref.DataMessages, ref.AckMessages, ref.Rounds, *runs)

	// Optimal (= converged adaptive) allocation.
	opt, err := experiments.AdaptiveCost(truth, root, *k)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "optimal algorithm:  %8d data msgs  (MRT + greedy allocation)\n", opt)
	fmt.Fprintf(out, "ratio ref/optimal:  %8.2f\n\n", ref.DataMessages/float64(opt))

	// Adaptive: converge, then plan a broadcast from learned knowledge.
	eng := sim.NewEngine(*seed)
	net := sim.NewNetwork(eng, truth, sim.Options{DisableCrashSampling: true})
	runner, err := broadcast.NewRunner(net, broadcast.RunnerOptions{
		K:                   *k,
		ModelCrashesAsSkips: true,
	}, nil)
	if err != nil {
		return err
	}
	runner.Start()
	crit := knowledge.DefaultCriterion
	converged := false
	for period := 25; period <= *maxPd; period += 25 {
		eng.RunUntil(sim.Time(period) + 0.5)
		if runner.AllConverged(crit) {
			converged = true
			break
		}
	}
	runner.Stop()
	if !converged {
		fmt.Fprintf(out, "adaptive algorithm: did not converge within %d periods\n", *maxPd)
		return nil
	}
	_, adaptive, err := runner.Proc(root).Broadcast([]byte("simrun"))
	if err != nil {
		return err
	}
	hb := net.Stats().Sent(sim.KindHeartbeat)
	fmt.Fprintf(out, "adaptive algorithm: %8d data msgs after convergence\n", adaptive)
	fmt.Fprintf(out, "convergence effort: %8d periods, %.1f heartbeats/link\n",
		runner.Periods(), float64(hb)/float64(g.NumLinks()))
	fmt.Fprintf(out, "adaptive/optimal:   %8.3f (Definition 2: → 1 at convergence)\n",
		float64(adaptive)/float64(opt))
	return nil
}
