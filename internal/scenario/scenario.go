package scenario

import (
	"fmt"
	"sort"
)

// Figures are the measurable outcomes of one scenario run — the numbers
// the acceptance predicates check and SCENARIOS.json reports. Every
// scenario fills the delivery/convergence block; the byzantine one also
// fills the frame-outcome block.
type Figures struct {
	Periods int `json:"periods"`

	// Probe delivery.
	ProbesSent          int     `json:"probes_sent"`
	ProbesDelivered     int     `json:"probes_delivered"` // distinct (probe, node) deliveries
	ProbesExpected      int     `json:"probes_expected"`  // sum over probes of up processes at send
	DeliveryRatio       float64 `json:"delivery_ratio"`
	TailDeliveryRatio   float64 `json:"tail_delivery_ratio"` // probes sent in the recovery window
	TailProbesSent      int     `json:"tail_probes_sent,omitempty"`
	WorstProbeRatio     float64 `json:"worst_probe_ratio"`
	MeanDeliveryLatency float64 `json:"mean_delivery_latency"` // virtual time, send→delivery

	// Knowledge convergence.
	ConvergedAtPeriod int  `json:"converged_at_period"` // first all-views period; -1 = never
	ConvergedAtEnd    bool `json:"converged_at_end"`

	// Traffic and injected hostility.
	HeartbeatsSent int `json:"heartbeats_sent"`
	HeartbeatBytes int `json:"heartbeat_bytes,omitempty"` // the encoded frames' bytes (twin)
	MessagesSent   int `json:"messages_sent"`
	FaultDrops     int `json:"fault_drops"` // transmissions eaten by the fault model

	// Frame outcomes: the cores' stale-epoch frames and epoch changes,
	// and what the byzantine replay injected and saw refused.
	FramesInjected      int `json:"frames_injected,omitempty"`
	DecodeErrors        int `json:"decode_errors,omitempty"`
	SnapshotMergeErrors int `json:"snapshot_merge_errors,omitempty"`
	StaleEpochFrames    int `json:"stale_epoch_frames,omitempty"`
	EpochChanges        int `json:"epoch_changes,omitempty"`
}

// Scenario is one named hostile condition: how to run it and what
// figures it must produce. Every scenario runs on the discrete-event
// twin and promises identical Figures for identical seeds (the
// reproducibility gate).
type Scenario struct {
	Name        string
	Description string
	Topology    string
	// Acceptance is the human-readable form of Check, for the README
	// table and SCENARIOS.json.
	Acceptance string
	// Run executes the scenario. short trims the period budget for CI.
	Run func(seed int64, short bool) (Figures, error)
	// Check returns the acceptance violations (empty = pass).
	Check func(Figures) []string
}

// Result is one scenario execution with its verdict.
type Result struct {
	Name        string   `json:"name"`
	Description string   `json:"description"`
	Topology    string   `json:"topology"`
	Acceptance  string   `json:"acceptance"`
	Seed        int64    `json:"seed"`
	Short       bool     `json:"short"`
	Figures     Figures  `json:"figures"`
	Violations  []string `json:"violations,omitempty"`
	Pass        bool     `json:"pass"`
	Error       string   `json:"error,omitempty"`
}

// Matrix returns every scenario, sorted by name.
func Matrix() []Scenario {
	m := []Scenario{
		baselineUniformLoss(),
		asymmetricLoss(),
		burstLoss(),
		wanJitter(),
		healingPartition(),
		flappingLink(),
		clockSkew(),
		churnUnderLoss(),
		byzantineReplay(),
	}
	sort.Slice(m, func(i, j int) bool { return m[i].Name < m[j].Name })
	return m
}

// ByName returns the named scenario.
func ByName(name string) (Scenario, error) {
	for _, s := range Matrix() {
		if s.Name == name {
			return s, nil
		}
	}
	return Scenario{}, fmt.Errorf("scenario: unknown scenario %q", name)
}

// Run executes one scenario and checks its acceptance predicate.
func Run(s Scenario, seed int64, short bool) Result {
	res := Result{
		Name:        s.Name,
		Description: s.Description,
		Topology:    s.Topology,
		Acceptance:  s.Acceptance,
		Seed:        seed,
		Short:       short,
	}
	figs, err := s.Run(seed, short)
	if err != nil {
		res.Error = err.Error()
		return res
	}
	res.Figures = figs
	res.Violations = s.Check(figs)
	res.Pass = len(res.Violations) == 0
	return res
}

// RunAll executes the whole matrix with one seed.
func RunAll(seed int64, short bool) []Result {
	scenarios := Matrix()
	results := make([]Result, 0, len(scenarios))
	for _, s := range scenarios {
		results = append(results, Run(s, seed, short))
	}
	return results
}
