package main

import (
	"bytes"
	"encoding/json"
	"sort"
	"strings"
	"testing"
)

func names(ms []benchmarkMetric) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name + " " + m.Unit
	}
	sort.Strings(out)
	return out
}

func defNames(ds []metricDef) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.name + " " + d.unit
	}
	sort.Strings(out)
	return out
}

// TestDeclaredNames keeps BENCHMARK.json and the program's own metric and
// workload lists from drifting apart.
func TestDeclaredNames(t *testing.T) {
	bf, err := readBenchmarkFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(names(bf.EndToEnd), "\n"), strings.Join(defNames(endToEnd), "\n"); got != want {
		t.Errorf("end_to_end in BENCHMARK.json:\n%s\nprogram:\n%s", got, want)
	}
	if got, want := strings.Join(names(bf.PerLayer), "\n"), strings.Join(defNames(perLayer), "\n"); got != want {
		t.Errorf("per_layer in BENCHMARK.json:\n%s\nprogram:\n%s", got, want)
	}
	var declared, have []string
	for _, w := range bf.Workloads {
		declared = append(declared, w.Name)
	}
	for _, s := range workloadSpecs {
		have = append(have, s.name)
	}
	if strings.Join(declared, " ") != strings.Join(have, " ") {
		t.Errorf("workloads in BENCHMARK.json %v, program %v", declared, have)
	}
}

// TestSmoke runs every workload end to end at a tiny budget and checks
// the shape of what it prints: exit code 0, a last line of JSON with
// exactly the declared end-to-end metrics, and a clean verdict.
func TestSmoke(t *testing.T) {
	for _, spec := range workloadSpecs {
		t.Run(spec.name, func(t *testing.T) {
			if testing.Short() && spec.n > 32 {
				t.Skip("128 processes under -short (the race job) take minutes")
			}
			var stdout, stderr bytes.Buffer
			code := run([]string{"-workload", spec.name, "-smoke", "-seconds", "0.4", "-seed", "3"}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("exit code %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var got jsonResult
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&got); err != nil {
				t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
			}
			if !got.Correct || got.Attempted < 1 || got.Failed != 0 {
				t.Fatalf("verdict %+v", got)
			}
			var have []string
			for name, m := range got.Metrics {
				have = append(have, name+" "+m.Unit)
				if m.Value <= 0 {
					t.Errorf("%s = %v, end-to-end metrics are never 0", name, m.Value)
				}
			}
			sort.Strings(have)
			if want := defNames(endToEnd); strings.Join(have, "\n") != strings.Join(want, "\n") {
				t.Errorf("metrics printed:\n%s\ndeclared:\n%s", strings.Join(have, "\n"), strings.Join(want, "\n"))
			}
		})
	}
}
