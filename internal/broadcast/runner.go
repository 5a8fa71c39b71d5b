package broadcast

import (
	"errors"
	"fmt"

	"adaptivecast/internal/heartbeat"
	"adaptivecast/internal/knowledge"
	"adaptivecast/internal/sim"
	"adaptivecast/internal/topology"
	"adaptivecast/internal/wire"
)

// RunnerOptions tunes the simulated adaptive cluster.
type RunnerOptions struct {
	// K is the reliability target (default DefaultK).
	K float64
	// Delta is the heartbeat period δ (default 1 time unit).
	Delta sim.Time
	// Params tunes each process's knowledge view.
	Params knowledge.Params
	// ModelCrashesAsSkips makes the runner sample each process's
	// per-period crash from the ground-truth configuration: a crashed
	// process skips its whole period (no heartbeat, no sequence number
	// consumed) and books an Event 4 self-observation. Use together with
	// sim.Options.DisableCrashSampling so crashes are not double-counted.
	// This is the convergence-experiment model (Figures 5 and 6).
	ModelCrashesAsSkips bool
	// Piggyback attaches each sender's knowledge snapshot to outgoing data
	// messages (the paper's Section 4.1 bandwidth optimization), so
	// application traffic spreads estimates in addition to heartbeats.
	Piggyback bool
	// ClockSkew, when non-nil, gives each node a private clock: node i
	// runs its heartbeat period every Delta*ClockSkew[i] instead of the
	// shared Delta (entries <= 0 and missing entries mean 1.0). A skewed
	// node still executes the full period protocol — it just drifts
	// against its neighbors' loss-accounting expectations, which is the
	// failure mode under test. Periods() stays anchored to the nominal
	// Delta. Nodes joined by Grow during a skewed run tick at 1.0.
	ClockSkew []float64
	// AdaptiveCadenceMax, in heartbeat periods, caps the adaptive
	// heartbeat cadence of every node's heartbeat plane, as
	// node.Config.AdaptiveCadenceMax does the live node's. Values <= 1
	// disable stretching (the classic one heartbeat per δ).
	AdaptiveCadenceMax int
}

func (o RunnerOptions) withDefaults() RunnerOptions {
	if o.K == 0 {
		o.K = DefaultK
	}
	if o.Delta == 0 {
		o.Delta = 1
	}
	return o
}

// Runner wires a full adaptive cluster onto a simulated network: one
// knowledge view, heartbeat plane and adaptive broadcast process per
// node. Every period each node runs its heartbeat plane — the one the
// live node runs — and sends each neighbor the encoded delta frame, which
// the receiver decodes and hands to its own plane; the runner itself
// keeps only the data plane: relay, dedup and plan.
type Runner struct {
	net      *sim.Network
	opts     RunnerOptions
	sink     func(topology.NodeID, Delivery)
	interner *knowledge.Interner
	views    []*knowledge.View
	planes   []*heartbeat.Plane
	procs    []*Proc
	// departed[i] marks nodes removed by MarkDeparted: their slots stay
	// (IDs are never reused) but they run no periods and are excluded
	// from convergence checks.
	departed []bool
	periods  int
	running  bool
	// period is the heartbeat-period workspace every node's step reuses:
	// the engine runs one event at a time.
	period heartbeat.Period
	// hbSent counts heartbeat messages actually sent (after cadence
	// skips), the frame-count metric adaptive cadence optimizes.
	hbSent int
}

// fullSnapshots makes every node forget its acks before each period, so
// every heartbeat is the full snapshot: the reference the delta frames
// are checked against. Only tests set it (see export_test.go).
var fullSnapshots bool

// nodeProc multiplexes a node's inbound traffic between the knowledge
// activity (heartbeats) and the broadcast activity (data), mirroring the
// paper's modular two-activity design.
type nodeProc struct {
	proc  *Proc
	plane *heartbeat.Plane
	sc    wire.Scratch
}

// HandleMessage implements sim.Process. A heartbeat is decoded through
// the node's own Scratch and handed to its plane; a frame that does not
// decode, or that the plane refuses, is dropped like a lost one.
func (np *nodeProc) HandleMessage(from topology.NodeID, msg sim.Message) {
	if msg.Kind == sim.KindHeartbeat {
		b, _ := msg.Payload.([]byte)
		if f, err := np.sc.DecodeBorrow(b); err == nil && f.Kind == wire.FrameKnowledgeDelta {
			_ = np.plane.Receive(from, f.Delta)
		}
		return
	}
	np.proc.HandleMessage(from, msg)
}

// NewRunner builds views and adaptive processes for every node of the
// network and registers them. Call Start to begin the heartbeat activity,
// then drive the network's engine.
func NewRunner(net *sim.Network, opts RunnerOptions, sink func(topology.NodeID, Delivery)) (*Runner, error) {
	opts = opts.withDefaults()
	g := net.Graph()
	n := g.NumNodes()
	if n == 0 {
		return nil, errors.New("broadcast: empty network")
	}
	r := &Runner{net: net, opts: opts, sink: sink, departed: make([]bool, n)}
	interner := knowledge.NewInterner()
	// Intern the ground-truth links first so view indices align with the
	// graph's link indices (convergence checks and stats rely on it).
	for _, l := range g.Links() {
		interner.Intern(l)
	}
	r.interner = interner
	r.views = make([]*knowledge.View, n)
	r.planes = make([]*heartbeat.Plane, n)
	r.procs = make([]*Proc, n)
	for i := 0; i < n; i++ {
		id := topology.NodeID(i)
		view, err := knowledge.NewView(id, n, g.Neighbors(id), interner, opts.Params)
		if err != nil {
			return nil, fmt.Errorf("broadcast: view %d: %w", i, err)
		}
		var deliver func(Delivery)
		if sink != nil {
			deliver = func(d Delivery) { sink(id, d) }
		}
		proc, err := NewAdaptive(net, id, opts.K, view, deliver)
		if err != nil {
			return nil, fmt.Errorf("broadcast: proc %d: %w", i, err)
		}
		proc.piggyback = opts.Piggyback
		r.views[i] = view
		r.planes[i] = heartbeat.New(view, opts.AdaptiveCadenceMax)
		r.procs[i] = proc
		if err := net.Register(id, &nodeProc{proc: proc, plane: r.planes[i]}); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Views exposes the per-node knowledge views (read-only use).
func (r *Runner) Views() []*knowledge.View { return r.views }

// Proc returns the adaptive broadcast process of one node.
func (r *Runner) Proc(id topology.NodeID) *Proc { return r.procs[id] }

// Periods returns how many heartbeat periods have elapsed.
func (r *Runner) Periods() int { return r.periods }

// Start schedules the recurring heartbeat activity. It is idempotent.
// With ClockSkew set, every node gets its own tick loop at its private
// period plus one nominal-period clock for Periods(); otherwise a single
// shared loop steps every node (the classic synchronous model).
func (r *Runner) Start() {
	if r.running {
		return
	}
	r.running = true
	if r.skewed() {
		r.net.After(r.opts.Delta, r.periodClock)
		for i := range r.views {
			r.startSkewLoop(topology.NodeID(i))
		}
		return
	}
	r.net.After(r.opts.Delta, r.tick)
}

// Stop halts the heartbeat activity after the current period.
func (r *Runner) Stop() { r.running = false }

// skewed reports whether any node runs off the nominal clock.
func (r *Runner) skewed() bool {
	for _, s := range r.opts.ClockSkew {
		if s > 0 && s != 1 {
			return true
		}
	}
	return false
}

// skewFor returns node i's period multiplier (1 when unset).
func (r *Runner) skewFor(i int) sim.Time {
	if i < len(r.opts.ClockSkew) && r.opts.ClockSkew[i] > 0 {
		return sim.Time(r.opts.ClockSkew[i])
	}
	return 1
}

// periodClock advances the nominal period counter in skewed mode.
func (r *Runner) periodClock() {
	if !r.running {
		return
	}
	r.periods++
	r.net.After(r.opts.Delta, r.periodClock)
}

// startSkewLoop schedules node id's private tick loop.
func (r *Runner) startSkewLoop(id topology.NodeID) {
	d := r.opts.Delta * r.skewFor(int(id))
	var loop func()
	loop = func() {
		if !r.running {
			return
		}
		r.stepNode(int(id))
		r.net.After(d, loop)
	}
	r.net.After(d, loop)
}

// tick executes one heartbeat period δ for every node: Event 3 aging and
// suspicion checks, then the epidemic heartbeat exchange (Algorithm 4
// lines 14–17).
func (r *Runner) tick() {
	if !r.running {
		return
	}
	r.periods++
	for i := range r.views {
		r.stepNode(i)
	}
	r.net.After(r.opts.Delta, r.tick)
}

// stepNode runs one heartbeat period of node i's protocol: its plane's
// period, then each due frame sent as the message payload, its size the
// frame's length.
func (r *Runner) stepNode(i int) {
	v := r.views[i]
	id := topology.NodeID(i)
	if v == nil || !r.net.Up(id) {
		return // explicitly crashed or departed: nothing runs
	}
	g := r.net.Graph()
	if r.opts.ModelCrashesAsSkips {
		if rng := r.net.Engine().Rand(); rng.Float64() < r.net.Config().Crash(id) {
			// The process spent this period crashed: it missed its tick
			// (Event 4) and sent no heartbeat, consuming no sequence
			// number — which is exactly what lets receivers distinguish
			// sender downtime from link loss.
			v.OnRecover(1)
			return
		}
	}
	ws := &r.period
	defer ws.Reset()
	if fullSnapshots {
		r.planes[i].Reset()
	}
	r.planes[i].Cut(ws, g.Neighbors(id), nil)
	for k, o := range ws.Outbound() {
		if !o.Due {
			continue
		}
		// The payload is in flight past this period: a fresh frame each.
		frame, err := ws.AppendFrame(nil, k, 0)
		if err != nil {
			continue
		}
		// Send errors cannot occur for topology neighbors.
		_ = r.net.Send(id, o.To, sim.Message{Kind: sim.KindHeartbeat, Size: len(frame), Payload: frame})
		r.hbSent++
	}
}

// HeartbeatsSent reports the heartbeat messages actually sent across the
// cluster (after adaptive-cadence skips) — the frame-count metric the
// cadence controller optimizes.
func (r *Runner) HeartbeatsSent() int { return r.hbSent }

// AllConverged reports whether every view has learned the ground truth.
// Departed members are excluded: their views stopped evolving when they
// left, and the ground truth no longer contains them.
func (r *Runner) AllConverged(crit knowledge.Criterion) bool {
	truth := r.net.Config()
	for i, v := range r.views {
		if r.departed[i] {
			continue
		}
		if !v.ConvergedTo(truth, crit) {
			return false
		}
	}
	return true
}

// Grow adds one node to the running twin, linked to the given existing
// neighbors — the discrete-event analog of Cluster.AddNode. The
// ground-truth graph, config, network state and every view grow in
// lockstep: the joiner gets a fresh view (uniform priors beyond its own
// zero-distortion links), its neighbors book the new link immediately
// (the join-announcement effect), and everyone else learns it through
// gossip. New links start at loss 0; set hostile values afterwards via
// Config().SetLossBetween. Returns the new node's ID.
func (r *Runner) Grow(neighbors []topology.NodeID) (topology.NodeID, error) {
	if len(neighbors) == 0 {
		return 0, errors.New("broadcast: grow needs at least one neighbor")
	}
	g := r.net.Graph()
	for _, nb := range neighbors {
		if !g.Active(nb) {
			return 0, fmt.Errorf("broadcast: grow neighbor %d not active", nb)
		}
	}
	id := g.AddNode()
	for _, nb := range neighbors {
		if _, err := g.AddLink(id, nb); err != nil {
			return 0, err
		}
		// Keep interner indices aligned with graph link indices for the
		// new links too (NewRunner established the invariant at build).
		r.interner.Intern(topology.NewLink(id, nb))
	}
	r.net.Config().Grow()
	r.net.Grow()

	view, err := knowledge.NewView(id, g.NumNodes(), neighbors, r.interner, r.opts.Params)
	if err != nil {
		return 0, fmt.Errorf("broadcast: grow view: %w", err)
	}
	for i, v := range r.views {
		if v == nil || r.departed[i] {
			continue
		}
		v.Grow(g.NumNodes())
	}
	for _, nb := range neighbors {
		if err := r.views[nb].AddNeighbor(id); err != nil {
			return 0, fmt.Errorf("broadcast: grow neighbor view: %w", err)
		}
	}

	var deliver func(Delivery)
	if r.sink != nil {
		sink := r.sink
		deliver = func(d Delivery) { sink(id, d) }
	}
	proc, err := NewAdaptive(r.net, id, r.opts.K, view, deliver)
	if err != nil {
		return 0, fmt.Errorf("broadcast: grow proc: %w", err)
	}
	proc.piggyback = r.opts.Piggyback
	plane := heartbeat.New(view, r.opts.AdaptiveCadenceMax)
	r.views = append(r.views, view)
	r.planes = append(r.planes, plane)
	r.procs = append(r.procs, proc)
	r.departed = append(r.departed, false)
	if err := r.net.Register(id, &nodeProc{proc: proc, plane: plane}); err != nil {
		return 0, err
	}
	if r.running && r.skewed() {
		r.startSkewLoop(id)
	}
	return id, nil
}

// MarkDeparted removes a node from the running twin: its incident links
// leave the ground truth (with the swap-removal index mirroring the
// config and stats layers require), the node is tombstoned in the graph
// and in every surviving view, and it permanently stops executing
// periods. The slot is never reused.
func (r *Runner) MarkDeparted(id topology.NodeID) error {
	g := r.net.Graph()
	if int(id) >= len(r.views) || r.departed[id] {
		return fmt.Errorf("broadcast: depart of unknown or departed node %d", id)
	}
	if !g.Active(id) {
		return fmt.Errorf("broadcast: depart of inactive node %d", id)
	}
	cfg := r.net.Config()
	nbs := append([]topology.NodeID(nil), g.Neighbors(id)...)
	for _, nb := range nbs {
		removedIdx, _, err := g.RemoveLink(id, nb)
		if err != nil {
			return err
		}
		if err := cfg.RemoveLinkAt(removedIdx); err != nil {
			return err
		}
		r.net.RemoveLinkAt(removedIdx)
	}
	if err := g.RemoveNode(id); err != nil {
		return err
	}
	r.departed[id] = true
	r.net.Crash(id) // permanently down: no periods, no receives
	for i, v := range r.views {
		if v == nil || r.departed[i] {
			continue
		}
		v.MarkDeparted(id)
	}
	return nil
}
