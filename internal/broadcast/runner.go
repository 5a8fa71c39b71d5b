package broadcast

import (
	"errors"
	"fmt"

	"adaptivecast/internal/dataplane"
	"adaptivecast/internal/heartbeat"
	"adaptivecast/internal/knowledge"
	"adaptivecast/internal/node"
	"adaptivecast/internal/sim"
	"adaptivecast/internal/topology"
	"adaptivecast/internal/wire"
)

// RunnerOptions tunes the simulated adaptive cluster.
type RunnerOptions struct {
	// K is the reliability target (default dataplane.DefaultK).
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
	// runs its full period every Delta*ClockSkew[i] (entries <= 0 and
	// missing entries mean 1.0, as do nodes joined by Grow), drifting
	// against its neighbors' loss accounting. Periods() stays anchored to
	// the nominal Delta.
	ClockSkew []float64
}

func (o RunnerOptions) withDefaults() RunnerOptions {
	if o.K == 0 {
		o.K = dataplane.DefaultK
	}
	if o.Delta == 0 {
		o.Delta = 1
	}
	return o
}

// Runner wires a full adaptive cluster onto a simulated network: one
// adaptive process per node, each driving its own node.Core, whose
// periods the runner steps.
type Runner struct {
	net      *sim.Network
	opts     RunnerOptions
	sink     func(topology.NodeID, Delivery)
	interner *knowledge.Interner
	procs    []*Proc
	periods  int
	running  bool
	// period is the heartbeat-period workspace every node's step reuses:
	// the engine runs one event at a time.
	period heartbeat.Period
	// hbSent counts heartbeat messages sent.
	hbSent int
}

// fullSnapshots makes every node forget its acks before each period, so
// every heartbeat is the full snapshot: the reference the delta frames
// are checked against. Only tests set it (see export_test.go).
var fullSnapshots bool

// NewRunner builds an adaptive process for every active node of the
// network, each at the graph's membership epoch with its tombstones, and
// registers them; a tombstoned node gets no process and stays down.
// Call Start to begin the heartbeat activity, then drive the network's
// engine.
func NewRunner(net *sim.Network, opts RunnerOptions, sink func(topology.NodeID, Delivery)) (*Runner, error) {
	opts = opts.withDefaults()
	g := net.Graph()
	n := g.NumNodes()
	if n == 0 {
		return nil, errors.New("broadcast: empty network")
	}
	r := &Runner{net: net, opts: opts, sink: sink, interner: knowledge.NewInterner()}
	// Intern the ground-truth links first so view indices align with the
	// graph's link indices (convergence checks and stats rely on it).
	for _, l := range g.Links() {
		r.interner.Intern(l)
	}
	gone := r.gone(topology.None)
	for i := 0; i < n; i++ {
		id := topology.NodeID(i)
		if !g.Active(id) {
			r.procs = append(r.procs, nil)
			net.Crash(id)
			continue
		}
		if err := r.add(node.Config{ID: id, NumProcs: n, Neighbors: g.Neighbors(id), Epoch: g.Epoch(), Departed: gone}); err != nil {
			return nil, fmt.Errorf("broadcast: proc %d: %w", i, err)
		}
	}
	return r, nil
}

// add registers the adaptive process of the membership cfg names.
func (r *Runner) add(cfg node.Config) error {
	cfg.K, cfg.Knowledge, cfg.Piggyback = r.opts.K, r.opts.Params, r.opts.Piggyback
	core, err := node.NewCore(cfg, r.interner)
	if err != nil {
		return err
	}
	var deliver func(Delivery)
	if sink := r.sink; sink != nil {
		deliver = func(d Delivery) { sink(cfg.ID, d) }
	}
	r.procs = append(r.procs, newProc(r.net, core, deliver))
	return r.net.Register(cfg.ID, r.procs[cfg.ID])
}

// Views exposes the per-node knowledge views (read-only use), nil for a
// node tombstoned before the runner was built.
func (r *Runner) Views() []*knowledge.View {
	views := make([]*knowledge.View, len(r.procs))
	for i, p := range r.procs {
		if p != nil {
			views[i] = p.core.View()
		}
	}
	return views
}

// Proc returns the adaptive broadcast process of one node, nil for a
// node tombstoned before the runner was built.
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
		for i := range r.procs {
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
	for i := range r.procs {
		r.stepNode(i)
	}
	r.net.After(r.opts.Delta, r.tick)
}

// stepNode runs one heartbeat period of node i's core: the control
// frames it decides, then each heartbeat sent as the message payload,
// its size the frame's length.
func (r *Runner) stepNode(i int) {
	p, id := r.procs[i], topology.NodeID(i)
	if !r.net.Up(id) {
		return // explicitly crashed or departed: nothing runs
	}
	if r.opts.ModelCrashesAsSkips {
		if rng := r.net.Engine().Rand(); rng.Float64() < r.net.Config().Crash(id) {
			// The process spent this period crashed: it missed its tick
			// (Event 4) and sent no heartbeat, consuming no sequence
			// number — which is exactly what lets receivers distinguish
			// sender downtime from link loss.
			p.core.Recover(1, 0)
			return
		}
	}
	ws := &r.period
	defer ws.Reset()
	if fullSnapshots {
		p.core.Heartbeat().Reset()
	}
	p.core.Tick(ws, &p.fx)
	_ = p.run(&p.fx)
	for k, o := range ws.Outbound() {
		// The payload is in flight past this period: a fresh frame each.
		frame, err := ws.AppendFrame(nil, k, p.fx.Epoch)
		if err != nil {
			continue
		}
		// Send errors cannot occur for topology neighbors.
		_ = r.net.Send(id, o.To, sim.Message{Kind: sim.KindHeartbeat, Size: len(frame), Payload: frame})
		r.hbSent++
	}
}

// HeartbeatsSent reports the heartbeat messages sent across the
// cluster.
func (r *Runner) HeartbeatsSent() int { return r.hbSent }

// AllConverged reports whether every view has learned the ground truth.
// Departed members are excluded: their views stopped evolving when they
// left, and the ground truth no longer contains them.
func (r *Runner) AllConverged(crit knowledge.Criterion) bool {
	truth := r.net.Config()
	for i, p := range r.procs {
		if truth.Graph().Active(topology.NodeID(i)) && !p.core.View().ConvergedTo(truth, crit) {
			return false
		}
	}
	return true
}

// Grow adds one node to the running twin, linked to the given existing
// neighbors — the discrete-event analog of Cluster.AddNode. The
// ground-truth graph, config and network state grow at once; the joiner
// starts at the next membership epoch with the graph's departed set and
// announces itself (node.Core.AnnounceJoin), so the members learn of it
// as live nodes do: through the announcement flood, the stale-epoch
// repair loop and the full-snapshot fallback after an epoch change. New
// links start at loss 0; set hostile values afterwards via
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
	cfg := node.Config{NumProcs: g.NumNodes() + 1, Neighbors: neighbors, Epoch: g.Epoch() + 1, Departed: r.gone(topology.None)}
	cfg.ID = g.AddNode()
	for _, nb := range neighbors {
		if _, err := g.AddLink(cfg.ID, nb); err != nil {
			return 0, err
		}
		// Keep interner indices aligned with graph link indices for the
		// new links too (NewRunner established the invariant at build).
		r.interner.Intern(topology.NewLink(cfg.ID, nb))
	}
	r.net.Config().Grow()
	r.net.Grow()
	if err := r.add(cfg); err != nil {
		return 0, fmt.Errorf("broadcast: grow proc: %w", err)
	}
	p := r.procs[cfg.ID]
	if err := p.core.AnnounceJoin(&p.fx); err != nil {
		return 0, err
	}
	_ = p.run(&p.fx)
	if r.running && r.skewed() {
		r.startSkewLoop(cfg.ID)
	}
	return cfg.ID, nil
}

// gone lists the processes the graph no longer has, and also, when it is
// not topology.None, the one that is leaving.
func (r *Runner) gone(leaving topology.NodeID) []topology.NodeID {
	g := r.net.Graph()
	var ids []topology.NodeID
	for i := range g.NumNodes() {
		if id := topology.NodeID(i); id == leaving || !g.Active(id) {
			ids = append(ids, id)
		}
	}
	return ids
}

// MarkDeparted removes a node from the running twin — the analog of
// Cluster.RemoveNode. A surviving neighbor announces the departure at
// the next membership epoch, built from the graph ledger
// (node.Core.AnnounceLeave), and the members tombstone the node as the
// flood reaches them. Its incident links then leave the ground truth
// (with the swap-removal index mirroring the config layer requires), the
// node is tombstoned in the graph, and it permanently
// stops executing periods. The slot is never reused.
func (r *Runner) MarkDeparted(id topology.NodeID) error {
	g := r.net.Graph()
	if !g.Active(id) {
		return fmt.Errorf("broadcast: depart of unknown or departed node %d", id)
	}
	nbs := append([]topology.NodeID(nil), g.Neighbors(id)...)
	if len(nbs) == 0 {
		return fmt.Errorf("broadcast: node %d has no neighbor to announce its departure", id)
	}
	m := &wire.Membership{Node: id, Epoch: g.Epoch() + 1, NumProcs: g.NumNodes(), Departed: r.gone(id)}
	if err := r.procs[nbs[0]].announceLeave(m); err != nil {
		return err
	}
	cfg := r.net.Config()
	for _, nb := range nbs {
		removedIdx, _, err := g.RemoveLink(id, nb)
		if err != nil {
			return err
		}
		if err := cfg.RemoveLinkAt(removedIdx); err != nil {
			return err
		}
	}
	if err := g.RemoveNode(id); err != nil {
		return err
	}
	r.net.Crash(id) // permanently down: no periods, no receives
	return nil
}
