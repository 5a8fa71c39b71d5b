// Command repro regenerates every table and figure of the paper's
// evaluation as text series (docs/ARCHITECTURE.md, "Where the paper lives
// in the code", maps each to its driver in internal/experiments).
//
// Usage:
//
//	repro -exp all                 # everything, reduced grid (minutes)
//	repro -exp fig4a               # one artifact
//	repro -exp fig5b -full         # paper-scale grid (slow)
//	repro -exp table1
//
// Artifacts: fig1, fig4a, fig4b, fig5a, fig5b, fig6, table1,
// abl-alloc, abl-tree, abl-acks.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"adaptivecast/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("repro", flag.ContinueOnError)
	var (
		exp   = fs.String("exp", "all", "artifact to regenerate (all, fig1, fig4a, fig4b, fig5a, fig5b, fig6, table1, abl-alloc, abl-tree, abl-acks, hetero)")
		full  = fs.Bool("full", false, "paper-scale parameter grid (slow); default is a reduced grid with the same shape")
		seed  = fs.Int64("seed", 1, "root random seed")
		chart = fs.Bool("chart", false, "also draw ASCII charts of the figures")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	drawChart = *chart

	runners := map[string]func() error{
		"fig1": func() error { return render(out, experiments.Figure1(experiments.DefaultFigure1()), nil) },
		"fig4a": func() error {
			r, err := experiments.Figure4(fig4Params(false, *full, *seed))
			return render(out, r, err)
		},
		"fig4b": func() error {
			r, err := experiments.Figure4(fig4Params(true, *full, *seed))
			return render(out, r, err)
		},
		"fig5a": func() error {
			r, err := experiments.Figure5(fig5Params(false, *full, *seed))
			return render(out, r, err)
		},
		"fig5b": func() error {
			r, err := experiments.Figure5(fig5Params(true, *full, *seed))
			return render(out, r, err)
		},
		"fig6":   func() error { r, err := experiments.Figure6(fig6Params(*full, *seed)); return render(out, r, err) },
		"table1": func() error { fmt.Fprintln(out, experiments.RenderTable1(experiments.Table1())); return nil },
		"abl-alloc": func() error {
			// Per-edge allocation only pays off when edges differ, so this
			// ablation runs on heterogeneous loss probabilities.
			p := ablParams(*seed)
			p.HeterogeneousLoss = true
			r, err := experiments.AblationAllocation(p)
			return render(out, r, err)
		},
		"abl-tree": func() error { r, err := experiments.AblationTree(ablParams(*seed)); return render(out, r, err) },
		"abl-acks": func() error { r, err := experiments.AblationGossipAcks(ablParams(*seed)); return render(out, r, err) },
		"hetero": func() error {
			p := experiments.DefaultHeterogeneous()
			p.Seed = *seed
			if !*full {
				p.N = 60
				p.Graphs = 2
				p.GossipRuns = 10
			}
			r, err := experiments.Heterogeneous(p)
			return render(out, r, err)
		},
	}

	order := []string{
		"table1", "fig1", "fig4a", "fig4b", "fig5a", "fig5b", "fig6",
		"abl-alloc", "abl-tree", "abl-acks", "hetero",
	}
	if *exp != "all" {
		fn, ok := runners[*exp]
		if !ok {
			return fmt.Errorf("unknown artifact %q", *exp)
		}
		return timed(out, *exp, fn)
	}
	for _, id := range order {
		if err := timed(out, id, runners[id]); err != nil {
			return err
		}
	}
	return nil
}

func timed(out io.Writer, id string, fn func() error) error {
	start := time.Now()
	if err := fn(); err != nil {
		return fmt.Errorf("%s: %w", id, err)
	}
	fmt.Fprintf(out, "# %s done in %v\n\n", id, time.Since(start).Round(time.Millisecond))
	return nil
}

// drawChart is set from the -chart flag; run() is the only writer.
var drawChart bool

func render(out io.Writer, r experiments.FigureResult, err error) error {
	if err != nil {
		return err
	}
	fmt.Fprintln(out, r.Render())
	if drawChart {
		fmt.Fprintln(out, r.RenderChart(60, 16))
	}
	return nil
}

// fig4Params returns the reduced or paper-scale grid for Figure 4.
func fig4Params(varyLoss, full bool, seed int64) experiments.Figure4Params {
	p := experiments.DefaultFigure4(varyLoss)
	p.Seed = seed
	if !full {
		p.Connectivities = []int{2, 4, 8, 12, 16, 20}
		p.Graphs = 2
		p.GossipRuns = 10
	}
	return p
}

// fig5Params returns the reduced or paper-scale grid for Figure 5.
func fig5Params(varyLoss, full bool, seed int64) experiments.Figure5Params {
	p := experiments.DefaultFigure5(varyLoss)
	p.Seed = seed
	if !full {
		p.N = 60
		p.Connectivities = []int{2, 6, 10, 14, 18}
		p.Probs = []float64{0, 0.01, 0.03, 0.05}
		p.Graphs = 1
	}
	return p
}

// fig6Params returns the reduced or paper-scale grid for Figure 6.
func fig6Params(full bool, seed int64) experiments.Figure6Params {
	p := experiments.DefaultFigure6()
	p.Seed = seed
	if !full {
		p.Sizes = []int{100, 140, 180, 220}
		p.Graphs = 2
	}
	return p
}

func ablParams(seed int64) experiments.AblationParams {
	return experiments.AblationParams{Seed: seed}
}
