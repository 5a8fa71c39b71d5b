// Command scenariomatrix runs the adversarial scenario matrix — every
// named hostile network condition with its machine-checked acceptance
// predicate — and writes the figures to a JSON report. CI runs it with
// -short and fails the build on any predicate violation; the committed
// SCENARIOS.json is the full-budget run at the default seed.
//
// Usage:
//
//	scenariomatrix [-seed N] [-short] [-run name] [-o SCENARIOS.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"adaptivecast/internal/scenario"
)

// report is the SCENARIOS.json document: the run parameters and one
// result per scenario. No timestamps — the file is committed, and the
// same seed must produce the same bytes for deterministic scenarios.
type report struct {
	Seed    int64             `json:"seed"`
	Short   bool              `json:"short"`
	Results []scenario.Result `json:"results"`
}

func main() {
	seed := flag.Int64("seed", 1, "seed for the scenarios' fault schedules and probe traffic")
	short := flag.Bool("short", false, "trim period budgets (the CI setting)")
	run := flag.String("run", "", "run only the named scenario (default: the whole matrix)")
	out := flag.String("o", "", "write the JSON report to this file (default: stdout only)")
	flag.Parse()

	var results []scenario.Result
	if *run != "" {
		s, err := scenario.ByName(*run)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		results = []scenario.Result{scenario.Run(s, *seed, *short)}
	} else {
		results = scenario.RunAll(*seed, *short)
	}

	failed := 0
	for _, r := range results {
		switch {
		case r.Error != "":
			failed++
			fmt.Printf("FAIL  %-22s error: %s\n", r.Name, r.Error)
		case !r.Pass:
			failed++
			fmt.Printf("FAIL  %-22s delivery=%.4f tail=%.4f\n", r.Name, r.Figures.DeliveryRatio, r.Figures.TailDeliveryRatio)
			for _, v := range r.Violations {
				fmt.Printf("      - %s\n", v)
			}
		default:
			fmt.Printf("pass  %-22s delivery=%.4f tail=%.4f converged@%d faultDrops=%d\n",
				r.Name, r.Figures.DeliveryRatio, r.Figures.TailDeliveryRatio,
				r.Figures.ConvergedAtPeriod, r.Figures.FaultDrops)
		}
	}

	if *out != "" {
		doc, err := json.MarshalIndent(report{Seed: *seed, Short: *short, Results: results}, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		doc = append(doc, '\n')
		if err := os.WriteFile(*out, doc, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	if failed > 0 {
		fmt.Printf("%d/%d scenarios failed\n", failed, len(results))
		os.Exit(1)
	}
	fmt.Printf("all %d scenarios pass\n", len(results))
}
