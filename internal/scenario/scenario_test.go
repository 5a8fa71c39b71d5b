package scenario

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestMatrixPasses runs every scenario in the matrix and asserts its
// acceptance predicate holds. This is the CI teeth of the adversarial
// suite: a regression in the broadcast, knowledge or transport layers
// that degrades behaviour under any of the hostile conditions shows up
// here as a named violation, not a silent figure drift.
func TestMatrixPasses(t *testing.T) {
	for _, s := range Matrix() {
		t.Run(s.Name, func(t *testing.T) {
			res := Run(s, 1, testing.Short())
			if res.Error != "" {
				t.Fatalf("scenario error: %s", res.Error)
			}
			if !res.Pass {
				for _, v := range res.Violations {
					t.Errorf("violation: %s", v)
				}
				t.Errorf("figures: %+v", res.Figures)
			}
		})
	}
}

// TestMatrixCoverage pins the catalog: the hostile conditions the
// matrix promises must each be present by name, and the matrix must
// stay at least as wide as it is today.
func TestMatrixCoverage(t *testing.T) {
	required := []string{
		"baseline-uniform-loss",
		"asymmetric-loss",
		"burst-loss",
		"wan-jitter",
		"healing-partition",
		"flapping-link",
		"clock-skew",
		"churn-under-loss",
		"byzantine-replay",
	}
	have := make(map[string]Scenario)
	for _, s := range Matrix() {
		if _, dup := have[s.Name]; dup {
			t.Errorf("duplicate scenario name %q", s.Name)
		}
		have[s.Name] = s
		if s.Run == nil || s.Check == nil {
			t.Errorf("scenario %q missing Run or Check", s.Name)
		}
		if s.Acceptance == "" || s.Description == "" || s.Topology == "" {
			t.Errorf("scenario %q missing documentation fields", s.Name)
		}
	}
	for _, name := range required {
		if _, ok := have[name]; !ok {
			t.Errorf("matrix is missing required scenario %q", name)
		}
	}
	if len(have) < 8 {
		t.Errorf("matrix has %d scenarios, want >= 8", len(have))
	}
}

// TestDeterministicReproducibility runs each scenario twice with the
// same seed and asserts bit-identical figures — the property that makes
// the committed SCENARIOS.json meaningful.
func TestDeterministicReproducibility(t *testing.T) {
	for _, s := range Matrix() {
		t.Run(s.Name, func(t *testing.T) {
			a, errA := s.Run(7, true)
			b, errB := s.Run(7, true)
			if errA != nil || errB != nil {
				t.Fatalf("run errors: %v / %v", errA, errB)
			}
			if !reflect.DeepEqual(a, b) {
				t.Errorf("same seed, different figures:\n  first:  %+v\n  second: %+v", a, b)
			}
		})
	}
}

// TestByName covers both lookup outcomes.
func TestByName(t *testing.T) {
	s, err := ByName("burst-loss")
	if err != nil || s.Name != "burst-loss" {
		t.Errorf("ByName(burst-loss) = %q, %v", s.Name, err)
	}
	if _, err := ByName("no-such-scenario"); err == nil {
		t.Error("ByName(no-such-scenario) succeeded, want error")
	}
}

// TestCommittedScenariosReproduce re-runs every scenario at
// SCENARIOS.json's seed and full budget and requires the figures the
// file commits, so the committed matrix cannot drift from the code: a
// change that moves a twin figure regenerates the file (make scenarios)
// and says why in the same commit.
func TestCommittedScenariosReproduce(t *testing.T) {
	raw, err := os.ReadFile("../../SCENARIOS.json")
	if err != nil {
		t.Fatal(err)
	}
	var committed struct {
		Seed    int64    `json:"seed"`
		Short   bool     `json:"short"`
		Results []Result `json:"results"`
	}
	if err := json.Unmarshal(raw, &committed); err != nil {
		t.Fatal(err)
	}
	if committed.Short {
		t.Fatal("SCENARIOS.json holds a -short run; it commits the full budgets")
	}
	byName := make(map[string]Figures, len(committed.Results))
	for _, r := range committed.Results {
		byName[r.Name] = r.Figures
	}
	for _, s := range Matrix() {
		t.Run(s.Name, func(t *testing.T) {
			want, ok := byName[s.Name]
			if !ok {
				t.Fatal("no committed entry")
			}
			got, err := s.Run(committed.Seed, false)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("figures drifted from SCENARIOS.json:\n  run:       %+v\n  committed: %+v", got, want)
			}
		})
	}
}
