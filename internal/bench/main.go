// Command bench is the repository's benchmark: four workloads against the
// default configuration of the adaptive broadcast runtime, the end-to-end
// costs a user pays (one broadcast, one heartbeat period) and, traced, the
// per-layer numbers that explain them. See README.md in this directory and
// BENCHMARK.json at the repository root.
//
//	go run ./internal/bench                          every workload, end-to-end metrics
//	go run ./internal/bench -workload tcp8-loopback  one workload
//	go run ./internal/bench -trace 1                 per-layer metrics, spans to -out
//	go run ./internal/bench -repeat 2                two sets, compared against the bounds
//
// The last line of a workload's output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero when
// any correctness check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	// One P, unless the caller set GOMAXPROCS. A broadcast is a chain of
	// goroutine hand-offs (origin → lane drain → transport → dispatch, once
	// per hop); with two Ps on the two shared vCPUs this runs on, each
	// hand-off is a futex wake and an inter-processor interrupt through the
	// hypervisor, and the run measured that: 24 identical runs of
	// fabric32-data read a p50 of 141–270 µs at two Ps against 139–202 µs at
	// one, with a better median, 40 % less CPU per broadcast and a twentieth
	// of the context switches.
	if os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(1)
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 7, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 12, "length of the measured part, per workload")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	out := fs.String("out", "", "span file of a traced run (default internal/bench/out/spans-<workload>.jsonl)")
	repeat := fs.Int("repeat", 1, "run this many full sets and compare them against the bounds in BENCHMARK.json")
	smoke := fs.Bool("smoke", false, "tiny warm-up, one set-up: for the smoke test, not for numbers")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || *repeat < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(stderr, "bench: bad arguments")
		fs.Usage()
		return 2
	}
	specs := workloadSpecs
	if *workload != "all" {
		s := specByName(*workload)
		if s == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
		specs = []*workloadSpec{s}
	}
	printProvenance(stdout, *seed)

	sets := make([]map[string][]metric, 0, *repeat)
	ok := true
	for set := 0; set < *repeat; set++ {
		got := make(map[string][]metric, len(specs))
		for _, spec := range specs {
			opt := options{seed: *seed, seconds: *seconds, trace: *trace == 1, smoke: *smoke, out: *out}
			if opt.trace && opt.out == "" {
				opt.out = filepath.Join("internal", "bench", "out", "spans-"+spec.name+".jsonl")
			}
			res, err := runWorkload(spec, opt)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", spec.name, err)
				return 1
			}
			if err := report(stdout, res); err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
			ok = ok && res.correct()
			got[spec.name] = res.metrics
		}
		sets = append(sets, got)
	}
	if *repeat > 1 {
		agree, err := compareSets(stdout, specs, sets)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		ok = ok && agree
	}
	if !ok {
		fmt.Fprintln(stderr, "bench: FAILED")
		return 1
	}
	return 0
}

// printProvenance stamps the output with what it was measured on.
func printProvenance(w io.Writer, seed int64) {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	fmt.Fprintf(w, "# bench seed=%d nproc=%d GOMAXPROCS=%d %s %s/%s commit=%s\n",
		seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, commit)
}

// jsonMetric and jsonResult are the machine-readable last line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// report prints one workload's result: a table for people, then the JSON
// line.
func report(w io.Writer, res *result) error {
	spec, v := res.spec, res.verdict
	mode := "end-to-end"
	if res.opt.trace {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "\n== %s · %s · seed %d · %.3g s ==\n", spec.name, mode, res.opt.seed, res.opt.seconds)
	fmt.Fprintf(w, "   %s\n", spec.why)
	fmt.Fprintf(w, "   frames crossed %s, never a real link\n", spec.kind)
	fmt.Fprintf(w, "   %-34s %14s %-6s %9s %8s\n", "metric", "value", "unit", "samples", "spread")
	row := func(m metric) {
		samples, spread := "", ""
		if m.samples > 0 {
			samples = fmt.Sprint(m.samples)
		}
		if !res.opt.trace && !res.opt.smoke {
			spread = fmt.Sprintf("%.1f%%", 100*m.spread)
		}
		fmt.Fprintf(w, "   %-34s %14.6g %-6s %9s %8s\n", m.def.name, m.value, m.def.unit, samples, spread)
	}
	for _, m := range res.metrics {
		row(m)
	}
	if len(res.timings) > 0 {
		fmt.Fprintln(w, "   timings of this run (per-layer metrics, not bounded; the traced run reports them to the driver):")
		for _, m := range res.timings {
			row(m)
		}
	}
	fmt.Fprintf(w, "   attempted=%d failed=%d lost=%d (Eq. 1 allows %d) diagnostic=%d diagnostic_late=%d\n",
		v.attempted, v.failed, v.lost, v.lostBound, v.diag, v.diagLate)
	pb := res.period
	fmt.Fprintf(w, "   mean period (%d periods): wall %.0f us = tick %.0f + broadcasts %.0f + drain %.0f (+ %.0f bookkeeping)\n",
		pb.periods, pb.wallUs, pb.tickUs, pb.bcastUs, pb.drainUs, pb.wallUs-pb.tickUs-pb.bcastUs-pb.drainUs)
	if res.opt.trace {
		p := res.path
		fmt.Fprintf(w, "   critical path, mean of %d sampled broadcasts (%.1f hops): end-to-end %.1f us = node %.1f + lanes %.1f + transport send %.1f + transport queue %.1f + dispatch %.1f (sum %.1f)\n",
			p.n, p.hops, p.e2eUs, p.nodeUs, p.lanesUs, p.sendUs, p.queueUs, p.dispatchUs, p.sumUs())
		fmt.Fprintf(w, "   spans kept=%d dropped=%d file=%s\n", res.spans, res.dropped, res.spanFile)
	}
	if res.rebased > 0 {
		fmt.Fprintf(w, "   the generator was stopped for more than %v %d time(s) (a frozen host); the open-loop schedule moved past each stall\n", maxGeneratorLag, res.rebased)
	}
	for _, p := range res.problems {
		fmt.Fprintf(w, "   PROBLEM: %s\n", p)
	}
	jr := jsonResult{Correct: res.correct(), Attempted: v.attempted, Failed: v.failed,
		Metrics: make(map[string]jsonMetric, len(res.metrics))}
	for _, m := range res.metrics {
		jr.Metrics[m.def.name] = jsonMetric{Value: m.value, Unit: m.def.unit}
	}
	line, err := json.Marshal(jr)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// benchmarkFile is the part of BENCHMARK.json the program reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// compareSets prints, per (metric, workload), the value of every set, the
// largest relative difference of a later set from the first, and the
// metric's bound; it reports whether every end-to-end pair agrees within
// its bound.
func compareSets(w io.Writer, specs []*workloadSpec, sets []map[string][]metric) (bool, error) {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return false, err
	}
	bounds := make(map[string]benchmarkMetric, len(bf.EndToEnd))
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = m
	}
	agree := true
	fmt.Fprintf(w, "\n== repeatability: %d sets ==\n", len(sets))
	fmt.Fprintf(w, "   %-16s %-28s %s\n", "workload", "metric", "values · worst difference · bound")
	for _, spec := range specs {
		for i, m := range sets[0][spec.name] {
			b, gated := bounds[m.def.name]
			var vals []string
			worst := 0.0
			for _, set := range sets {
				v := set[spec.name][i].value
				vals = append(vals, fmt.Sprintf("%.6g", v))
				if m.value != 0 {
					d := (v - m.value) / m.value
					if d < 0 {
						d = -d
					}
					worst = max(worst, d)
				}
			}
			verdict := ""
			if gated {
				verdict = fmt.Sprintf("bound %.0f%%", 100*b.Bound)
				if worst > b.Bound {
					verdict += "  EXCEEDED"
					agree = false
				}
			}
			fmt.Fprintf(w, "   %-16s %-28s %s · %.1f%% · %s\n", spec.name, m.def.name, strings.Join(vals, " "), 100*worst, verdict)
		}
	}
	return agree, nil
}
