package node

// The protocol core: everything a process decides, with no I/O. Core is
// Algorithm 1's broadcast and receive and Algorithm 4's period and its
// Event 1 merge as event handlers over one process's state — the view,
// both planes, the membership epoch and roster, the re-announcement
// state and the sequencer. It starts no goroutine, takes no lock and
// reads no clock: each input fills an Effects buffer its runtime owns,
// and the runtime carries the effects out on its own transport. The live
// Node drives it under Node.mu over the lanes; the discrete-event twin
// (internal/broadcast) over sim.Network.

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"adaptivecast/internal/config"
	"adaptivecast/internal/dataplane"
	"adaptivecast/internal/heartbeat"
	"adaptivecast/internal/knowledge"
	"adaptivecast/internal/topology"
	"adaptivecast/internal/wire"
)

// announceRounds is how many consecutive heartbeat periods a node
// re-floods its latest membership announcement. Announcements cross the
// same lossy links as every other frame; with per-link loss L the chance
// a neighbor misses all rounds is L^(1+announceRounds) (the original
// flood plus the repeats), and delta-heartbeat clusters additionally
// repair stragglers through the stale-epoch re-announcement loop.
const announceRounds = 3

// memberChange is the last membership announcement this node applied (or
// originated), kept for re-announcement: a peer whose frames arrive with
// a stale epoch missed the flood, and re-sending the complete Membership
// catches it up in one frame. frame is the announcement pre-encoded, so
// the repair paths (per stale frame received, per redundancy round) pay
// one Send each, never a re-serialization.
type memberChange struct {
	kind   wire.FrameKind // FrameJoin or FrameLeave
	member wire.Membership
	frame  []byte
}

// newMemberChange builds the record, deep-copying the slices (the caller
// may hold them) and pre-encoding the frame. Encoding a validated
// Membership cannot fail; a nil frame just disables re-announcement.
func newMemberChange(kind wire.FrameKind, m *wire.Membership) *memberChange {
	mc := &memberChange{kind: kind, member: *m}
	mc.member.Departed = append([]topology.NodeID(nil), m.Departed...)
	mc.member.Neighbors = append([]topology.NodeID(nil), m.Neighbors...)
	mc.frame, _ = wire.Encode(&wire.Frame{Kind: kind, Member: &mc.member})
	return mc
}

// Outcome is what became of one received frame: Receive reports exactly
// one per frame. AnnounceLeave, which adopts an epoch without a frame,
// reports Adopted too.
type Outcome uint8

const (
	Ignored   Outcome = iota // an announcement at or below the epoch, or one saying this process left
	Merged                   // a delta merged into the view
	Refused                  // a delta naming another sender or one the view refused, or a frame of a kind no process sends
	Stale                    // a delta or data frame from an older membership epoch
	Ahead                    // a delta or data frame from a newer membership epoch
	Delivered                // the first receipt of a data message
	Duplicate                // a data message seen before
	Forged                   // a data frame whose origin is outside the ID space
	Adopted                  // a membership change that moved the epoch
)

// Control is one pre-encoded protocol frame for one peer: a membership
// announcement or a repair.
type Control struct {
	To    topology.NodeID
	Frame []byte
}

// Effects is what one Core call decided, for its runtime to carry out.
// The runtime owns it and hands it to every call, which Resets it first,
// so a decision allocates nothing. Frames and bodies it names are read
// only, and those of a received frame alias that frame.
type Effects struct {
	Outcome Outcome // what became of the frame Receive was handed
	// BadTree marks a delivered data frame whose parent vector is not a
	// tree (it is not relayed), BadPiggyback one whose piggybacked
	// snapshot the view refused (the message costs nothing for it).
	BadTree, BadPiggyback bool
	Merged                bool // the view merged knowledge: its Algorithm 3 verdict counts moved

	Control []Control // protocol frames to send, one copy each, before anything else
	Epoch   uint64    // the membership epoch the heartbeats Tick cut declare

	// Seq is the sequence number Broadcast issued; Plan is the plan it
	// launched from (Err set: the message floods), Fresh whether the call
	// built it, and Planned Σ m[j] or the flood's fan-out.
	Seq     uint64
	Plan    *dataplane.Plan
	Fresh   bool
	Planned int

	Deliver  bool // Delivery goes to the application
	Delivery Delivery

	// Out is set when a data frame goes out: Sends copies of Msg, decoded
	// from Raw (nil for an origin's own frame), carrying Snap when set
	// (dataplane.AppendRelay encodes it).
	Out   bool
	Sends dataplane.Sends
	Msg   *wire.DataMsg
	Raw   []byte
	Snap  *knowledge.Snapshot

	own wire.DataMsg // backs Msg for a broadcast
}

// Reset empties fx for the next call, keeping the Control list's room.
func (fx *Effects) Reset() { *fx = Effects{Control: fx.Control[:0]} }

// Core is one process's protocol state and its event handlers. It is not
// safe for concurrent use; its runtime serializes the calls.
type Core struct {
	id topology.NodeID
	// view is the knowledge approximation (Algorithm 4), nil for a process
	// planning from the ground truth (Section 3). hb is the heartbeat
	// plane over it, the ack chain toward and from each neighbor; plane
	// the data plane, the plan cache and the dedup watermarks.
	view  *knowledge.View
	hb    *heartbeat.Plane
	plane *dataplane.Plane
	// epoch is the membership epoch; nbs the neighbor roster, replaced
	// whole on a change. lastChange backs re-announcements (nil until the
	// first membership change), reannounced limits stale-epoch repairs to
	// one per peer per period, and announceLeft counts the periods Tick
	// still re-floods lastChange.
	epoch        uint64
	nbs          []topology.NodeID
	lastChange   *memberChange
	reannounced  map[topology.NodeID]bool
	announceLeft int
	seq          uint64 // the broadcast sequencer
}

// NewCore returns the core of process cfg.ID, its view sharing interner
// (nil for a view of its own). Of cfg it reads the membership (ID,
// NumProcs, Neighbors, Epoch, Departed), K, Knowledge and Piggyback. A
// core created at an epoch above 0 is a joiner: it can catch laggard
// peers up on its own join, and re-floods it for a few periods in case
// the AnnounceJoin flood is lost.
func NewCore(cfg Config, interner *knowledge.Interner) (*Core, error) {
	if cfg.K == 0 {
		cfg.K = dataplane.DefaultK
	}
	if err := checkK(cfg.K); err != nil {
		return nil, err
	}
	view, err := knowledge.NewView(cfg.ID, cfg.NumProcs, cfg.Neighbors, interner, cfg.Knowledge)
	if err != nil {
		return nil, err
	}
	for _, d := range cfg.Departed {
		if d == cfg.ID {
			return nil, fmt.Errorf("node: self %d listed as departed", d)
		}
		view.MarkDeparted(d)
	}
	c := &Core{
		id:          cfg.ID,
		view:        view,
		hb:          heartbeat.New(view),
		plane:       dataplane.New(cfg.ID, cfg.K, view, cfg.Piggyback),
		epoch:       cfg.Epoch,
		nbs:         append([]topology.NodeID(nil), cfg.Neighbors...),
		reannounced: make(map[topology.NodeID]bool),
	}
	if cfg.Epoch > 0 {
		c.lastChange = newMemberChange(wire.FrameJoin,
			&wire.Membership{Node: cfg.ID, Epoch: cfg.Epoch, NumProcs: cfg.NumProcs, Departed: cfg.Departed, Neighbors: c.nbs})
		c.announceLeft = announceRounds
	}
	return c, nil
}

// NewOptimalCore returns the core of a process with perfect knowledge of
// the ground truth (Section 3): its data plane plans from g and c as they
// stand at each broadcast, and it runs no heartbeat plane. Tick,
// Recover and the membership calls are not for it.
func NewOptimalCore(id topology.NodeID, k float64, g *topology.Graph, c *config.Config) (*Core, error) {
	if err := checkK(k); err != nil {
		return nil, err
	}
	return &Core{id: id, plane: dataplane.NewOptimal(id, k, g, c), nbs: g.Neighbors(id)}, nil
}

func checkK(k float64) error {
	if math.IsNaN(k) || k <= 0 || k >= 1 {
		return fmt.Errorf("node: K=%v outside (0,1)", k)
	}
	return nil
}

// ID, View, Heartbeat, Data, Epoch and Neighbors read the core's state:
// a Section 3 process has no view and no heartbeat plane, and the core
// never writes to a roster it handed out.
func (c *Core) ID() topology.NodeID          { return c.id }
func (c *Core) View() *knowledge.View        { return c.view }
func (c *Core) Heartbeat() *heartbeat.Plane  { return c.hb }
func (c *Core) Data() *dataplane.Plane       { return c.plane }
func (c *Core) Epoch() uint64                { return c.epoch }
func (c *Core) Neighbors() []topology.NodeID { return c.nbs }

// Recover books `missed` heartbeat periods this process spent crashed
// (Event 4) and resumes the sequencer above seqFloor, so a restarted
// process issues no sequence number a past incarnation may have used.
func (c *Core) Recover(missed int, seqFloor uint64) {
	if missed > 0 {
		c.view.OnRecover(missed)
	}
	c.seq = max(c.seq, seqFloor)
}

// Tick runs one heartbeat period into ws (Algorithm 4 lines 14–17):
// Events 2 and 3 and one outbound heartbeat per neighbor, which the
// runtime encodes from ws at fx.Epoch (heartbeat.Period.AppendFrame) and
// sends after any Control frame. It re-arms the per-peer repair budget
// and, for a few periods after a membership change, re-floods the
// announcement, so a lossy link cannot silently strand a member in the
// old epoch. The roster and epoch are read once per period: a change
// landing after Tick takes effect next period.
func (c *Core) Tick(ws *heartbeat.Period, fx *Effects) {
	fx.Reset()
	clear(c.reannounced)
	if c.announceLeft > 0 {
		c.announceLeft--
		c.flood(c.lastChange, topology.None, fx)
	}
	fx.Epoch = c.epoch
	c.hb.Cut(ws, c.nbs)
}

// Broadcast launches this process's next broadcast of body (Algorithm 1
// lines 1–4): it issues a sequence number, plans from the view as it
// stands (or floods the roster while the view cannot plan), delivers
// locally and sends each copy the plan allocates.
func (c *Core) Broadcast(body []byte, fx *Effects) {
	fx.Reset()
	c.seq++
	fx.own = wire.DataMsg{Origin: c.id, Seq: c.seq, Root: c.id, Body: body, Epoch: c.epoch}
	l := c.plane.Broadcast(&fx.own, c.nbs)
	fx.Seq, fx.Plan, fx.Fresh, fx.Planned = c.seq, l.Plan, l.Fresh, l.Planned
	fx.Deliver, fx.Delivery = true, Delivery{Origin: c.id, Seq: c.seq, From: c.id, Body: body}
	fx.Out, fx.Sends, fx.Msg, fx.Snap = true, l.Sends, &fx.own, l.Snap
}

// Receive decides one decoded frame from peer `from`, raw its encoding,
// and reports what became of it in fx.Outcome. Knowledge enters only as
// a delta (a full snapshot is the delta whose Since is 0), and a delta
// or data frame is epoch-fenced first (see admit); a delta must also
// name its sender (heartbeat.ErrSender). Any other kind — the full
// heartbeat wire.FrameHeartbeat, which carries no epoch and which no
// process sends — is Refused.
func (c *Core) Receive(from topology.NodeID, f *wire.Frame, raw []byte, fx *Effects) {
	fx.Reset()
	switch f.Kind {
	case wire.FrameKnowledgeDelta:
		if c.admit(from, f.Delta.Epoch, fx) {
			c.merged(c.hb.Receive(from, f.Delta), fx)
		}
	case wire.FrameData:
		if c.admit(from, f.Data.Epoch, fx) {
			c.receiveData(from, f.Data, raw, fx)
		}
	case wire.FrameJoin, wire.FrameLeave:
		// The epoch dedups the flood: only a strictly newer change is
		// applied and relayed, to the new roster but its sender and its
		// subject, and the repair loop catches up whom the flood misses.
		// A leave naming this process has nothing to apply here.
		if f.Member.Node == c.id && f.Kind == wire.FrameLeave {
			return
		}
		if lc := c.apply(f.Kind, f.Member, fx); lc != nil {
			c.flood(lc, from, fx)
		}
	default:
		fx.Outcome = Refused
	}
}

func (c *Core) merged(err error, fx *Effects) {
	fx.Merged = true
	if fx.Outcome = Merged; err != nil {
		fx.Outcome = Refused
	}
}

// admit fences a delta or data frame against the membership epoch. Same
// epoch: process. Older epoch: the sender missed a membership change —
// drop the frame (it belongs to a dead membership view) and repair the
// laggard with the announcement that created the current epoch, once per
// peer per period (Tick re-arms it), so a burst of stale frames is not
// amplified. Newer epoch: this process is the laggard — drop the frame
// too, and rely on the pull loop the drop creates: our next heartbeat
// reaches the ahead peer with a stale epoch, the peer repairs us, and the
// cleared ack state makes both sides exchange full snapshots.
func (c *Core) admit(from topology.NodeID, epoch uint64, fx *Effects) bool {
	switch {
	case epoch == c.epoch:
		return true
	case epoch > c.epoch:
		fx.Outcome = Ahead
		return false
	}
	fx.Outcome = Stale
	if !c.reannounced[from] {
		c.reannounced[from] = true
		if lc := c.lastChange; lc != nil && lc.frame != nil {
			fx.Control = append(fx.Control, Control{from, lc.frame})
		}
	}
	return false
}

// receiveData runs the data plane's receipt decision (Algorithm 1 lines
// 5–7, dataplane.Plane.Receive): deliver on first receipt, and relay down
// the carried tree, or re-flood a warm-up message, when the plane says
// so.
func (c *Core) receiveData(from topology.NodeID, msg *wire.DataMsg, raw []byte, fx *Effects) {
	rx := c.plane.Receive(from, msg, c.nbs)
	fx.Merged = msg.Piggyback != nil && c.view != nil
	fx.BadPiggyback = rx.MergeErr != nil
	switch {
	case rx.Refused != nil && !rx.Fresh:
		fx.Outcome = Forged
		return
	case !rx.Fresh:
		fx.Outcome = Duplicate
		return
	}
	fx.Outcome, fx.BadTree = Delivered, rx.Refused != nil
	fx.Deliver, fx.Delivery = true, Delivery{Origin: msg.Origin, Seq: msg.Seq, From: from, Body: msg.Body}
	if rx.Relay {
		fx.Out, fx.Sends, fx.Msg, fx.Raw, fx.Snap = true, rx.Sends, msg, raw, rx.Snap
	}
}

// apply installs a membership change: grow the view's ID space,
// tombstone departed members, splice the subject in or out of the
// roster, adopt the epoch, and re-anchor everything derived from the old
// membership — the plan cache invalidates itself (Grow, MarkDeparted and
// AddNeighbor bump the view version it is keyed on), and the heartbeat
// plane's reset makes the next exchange fall back to full snapshots in
// both directions (the knowledge pull that brings a joiner, or a laggard
// crossing several epochs at once, up to speed). It returns the change
// as applied, or nil when it is not newer than the current epoch
// (Membership carries the complete roster, so a newer one is applied
// wholesale).
func (c *Core) apply(kind wire.FrameKind, m *wire.Membership, fx *Effects) *memberChange {
	if m.Epoch <= c.epoch {
		return nil
	}
	c.epoch = m.Epoch
	fx.Outcome = Adopted

	c.view.Grow(m.NumProcs)
	for _, d := range m.Departed {
		c.view.MarkDeparted(d)
	}
	joinsUs := kind == wire.FrameJoin && slices.Contains(m.Neighbors, c.id)
	if joinsUs {
		_ = c.view.AddNeighbor(m.Node)
	}
	// Install a fresh roster: callers keep whatever slice they read.
	roster := make([]topology.NodeID, 0, len(c.nbs)+1)
	for _, nb := range c.nbs {
		if !slices.Contains(m.Departed, nb) && nb != m.Node {
			roster = append(roster, nb) // a re-announced joiner is re-added below
		}
	}
	if joinsUs {
		roster = append(roster, m.Node)
	}
	c.nbs = roster
	c.hb.Reset()

	c.lastChange = newMemberChange(kind, m)
	c.announceLeft = announceRounds
	return c.lastChange
}

// flood sends lc's frame to every neighbor but `except` and lc's subject.
func (c *Core) flood(lc *memberChange, except topology.NodeID, fx *Effects) {
	if lc == nil || lc.frame == nil {
		return
	}
	for _, nb := range c.nbs {
		if nb != except && nb != lc.member.Node {
			fx.Control = append(fx.Control, Control{nb, lc.frame})
		}
	}
}

// AnnounceJoin floods this joiner's own announcement to its neighbors.
// Call it once on a freshly created joiner (created at the membership
// change's epoch, its neighbors naming its links): the members receiving
// it apply the change, learn their new link, and their next heartbeats
// deliver the full knowledge snapshots that fold the joiner into the
// running cluster.
func (c *Core) AnnounceJoin(fx *Effects) error {
	fx.Reset()
	lc := c.lastChange
	if lc == nil || lc.kind != wire.FrameJoin || lc.member.Node != c.id {
		return errors.New("node: not configured as a joiner (Config.Epoch unset)")
	}
	if lc.frame == nil {
		return errors.New("node: join announcement failed to encode")
	}
	c.flood(lc, topology.None, fx)
	return nil
}

// AnnounceLeave applies a fully specified leave announcement and floods
// it. Callers holding an authoritative ledger (a cluster's graph) build m
// from it rather than from this view (see LeaveOf), so the announced
// ID-space size and tombstone set stay correct even when this process
// has not caught up with an in-flight change — a leave must not erase a
// join it overtook. m.Departed must include m.Node; nothing is applied
// on error.
func (c *Core) AnnounceLeave(m *wire.Membership, fx *Effects) error {
	fx.Reset()
	if m.Node == c.id {
		return errors.New("node: cannot announce own departure")
	}
	if !slices.Contains(m.Departed, m.Node) {
		return fmt.Errorf("node: leave announcement does not tombstone the leaver %d", m.Node)
	}
	lc := c.apply(wire.FrameLeave, m, fx)
	if lc == nil {
		return errors.New("node: leave announcement lost an epoch race; retry")
	}
	if lc.frame == nil {
		return errors.New("node: leave announcement failed to encode")
	}
	c.flood(lc, topology.None, fx)
	return nil
}

// LeaveOf builds, from this view, the announcement that leaver left at
// epoch: the view's ID-space size, and its tombstones plus the leaver.
func (c *Core) LeaveOf(leaver topology.NodeID, epoch uint64) (*wire.Membership, error) {
	numProcs := c.view.NumProcs()
	if int(leaver) >= numProcs || leaver < 0 {
		return nil, fmt.Errorf("node: leaver %d outside [0,%d)", leaver, numProcs)
	}
	if c.view.Departed(leaver) {
		return nil, fmt.Errorf("node: process %d already departed", leaver)
	}
	m := &wire.Membership{Node: leaver, Epoch: epoch, NumProcs: numProcs}
	for i := range numProcs {
		if id := topology.NodeID(i); id == leaver || c.view.Departed(id) {
			m.Departed = append(m.Departed, id)
		}
	}
	return m, nil
}
