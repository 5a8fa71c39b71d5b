// Package knowledge implements the paper's adaptive approximation activity
// (Section 4, Algorithms 3 and 4): each process p_k maintains a view
// (Λ_k, C_k) of the topology and failure configuration, built from
// periodic sequenced heartbeats exchanged with direct neighbors.
//
// Every estimate carries a distortion factor: 0 for what p_k measures
// itself (its own crash probability, its incident links), and otherwise
// the estimate's network distance from its origin, aged further when no
// news arrives. When two views meet, the less distorted estimate wins
// (selectBestEstimate, Algorithm 3), and adopted estimates get their
// distortion incremented because they are now second-hand.
//
// Events (Algorithm 4):
//
//  1. Heartbeat reception — detect lost heartbeats from sequence-number
//     gaps, reconcile them against the suspicions raised meanwhile, update
//     the link's Bayesian estimate, merge the sender's estimates and
//     topology knowledge.
//  2. Timeout without news — age the estimate's distortion; for direct
//     neighbors, raise a suspicion and decrease the process and link
//     reliability beliefs.
//  3. Surviving a tick — increase the self-reliability belief.
//  4. Recovering from a crash of n ticks — decrease it n times.
//
// Two deliberate deviations from the paper's pseudo-code, documented here
// and in DESIGN.md:
//
// First, Algorithm 4 line 19 computes the suspicion adjustment but never
// credits a successfully received heartbeat as positive evidence for the
// link. Read literally, link beliefs could only ever decrease (or be
// compensated), so the estimator could not converge to the true loss rate
// from its uniform prior. Following the paper's own prose — "this event
// allows p_k to know how many messages were lost by link l_{k,j}" — this
// implementation counts, on each reception, `gap-1` losses (the exact
// ground truth revealed by the sequence numbers) and one success for the
// heartbeat that made it through. In the long run the success:failure
// evidence ratio is (1-L):L and the Bayesian network concentrates on the
// interval containing L, which is the convergence behavior Figures 5 and 6
// report.
//
// Second, Algorithm 4 lines 38–39 decrease the link belief on every
// suspicion and line 22 "compensates" if the suspicion proves unfounded.
// Bayes updates are multiplicative, so a decrease followed by an increase
// is not an identity: each unfounded suspicion would inject an m(1-m)
// likelihood factor that drags the posterior toward 0.5 and, worse, a
// neighbor that is merely crashed (its heartbeats were never sent, so no
// sequence numbers were consumed) would permanently contaminate the *link*
// estimate. This implementation therefore books link evidence only from
// sequence gaps — which distinguish loss (gap: the sender did send) from
// sender downtime (no gap: the sender never incremented) — while Event 2
// suspicions decay only the process belief and feed the timeout
// adaptation. The process belief is self-corrected on reconnection: the
// heartbeat carries the neighbor's own zero-distortion self-estimate,
// which is re-adopted, or — a delta leaves it out while it is unchanged —
// the suspicion's evidence is undone (View.forgive).
//
// A heartbeat may declare a cadence c > 1, promising its next frame c
// periods later; the view then scales that neighbor's suspicion timeout,
// its sequence-gap loss count and the aging of the estimates it supplied
// by c, clamped to maxDeclaredCadence (View.MergeSnapshotAt). The
// heartbeat plane (internal/heartbeat) sends every neighbor a frame each
// period and declares 1, which leaves every count unscaled.
package knowledge

import (
	"fmt"
	"iter"
	"math"
	"slices"

	"adaptivecast/internal/bayes"
	"adaptivecast/internal/config"
	"adaptivecast/internal/topology"
)

// DistInf is the distortion of an estimate nothing is known about yet
// (the paper's d = ∞ initialization).
const DistInf = math.MaxInt32

// Params tunes a view. The zero value gets sensible defaults from
// applyDefaults.
type Params struct {
	// InitialTimeout is ∆_k[p_j] in heartbeat periods (default 1, i.e. δ).
	InitialTimeout int
	// MaxTimeout caps the adaptive growth of per-neighbor timeouts
	// (default 16 periods).
	MaxTimeout int
	// LinkAgeTimeout is the quiet-period count after which a remote link
	// estimate's distortion ages one step (default 8). Links have no
	// Event-3 self-observation keeping them fresh — a converged link stops
	// shipping in deltas entirely — so they age on a slower clock than
	// processes; like process aging, the threshold scales with the
	// supplying neighbor's declared inbound cadence so stretched gossip
	// paths don't decay knowledge that is merely arriving slowly.
	// Incident links (distortion 0) and unknown links never age. It is
	// also the period of the sibling-horizon mask expiry, for process
	// and link records alike: a neighbour's copy can age past ours
	// unseen, so BeginPeriod clears each record's mask once every
	// LinkAgeTimeout periods.
	LinkAgeTimeout int
	// DeltaEpsilon is the minimum posterior-mean movement for an estimate
	// to count as changed for delta heartbeats (View.DeltaTo): a record
	// is re-shipped once its mean has drifted more than DeltaEpsilon from
	// the value at its last wire-signature bump, or its distortion
	// changed. A posterior over n observations moves by
	// about 1/n on a loss and λ/n on a success, so on a lossy link a
	// record keeps re-shipping until n ≳ 10⁴: only lossless estimates
	// drop out of steady-state deltas within a run. Receiver-agnostic
	// deltas re-shipped 85 % of the view per period on a 32-node lossy
	// fabric and 99 % at 128 nodes; View.AppendOmitted then leaves out
	// of each neighbour's share the records it supplied and the process
	// and link records it is known to hold at no greater distortion,
	// which it would reject. The cumulative divergence between a delta
	// receiver's view and the sender's is bounded by DeltaEpsilon (drift
	// accumulates against the last-shipped value, not the previous
	// period's) for every process and link record but those the receiver
	// holds at no greater distortion.
	// Default 1e-4 — two orders of magnitude finer than the U=100
	// interval width the paper's convergence criterion resolves. Negative
	// means exact (any change re-ships).
	DeltaEpsilon float64
}

func (p Params) withDefaults() Params {
	if p.InitialTimeout == 0 {
		// Two periods: a heartbeat received in period t keeps its sender
		// unsuspected through period t+1, so the regular cadence alone
		// never raises suspicions.
		p.InitialTimeout = 2
	}
	if p.MaxTimeout == 0 {
		p.MaxTimeout = 16
	}
	if p.LinkAgeTimeout == 0 {
		p.LinkAgeTimeout = 8
	}
	if p.DeltaEpsilon == 0 {
		p.DeltaEpsilon = 1e-4
	}
	return p
}

// Interner assigns process-local dense indices to links as they become
// known, so views can keep link estimates in slices. Views in one
// simulation may share an interner (indices then agree across views and
// with the simulated graph's link indices); live nodes each own one.
// Links are kept packed, both endpoints in one word (see pack), in
// first-sight order, which is also the order of a snapshot's link
// records. The index over them is an open-addressed table of positions
// in links, at most half full.
type Interner struct {
	slots []int32 // 1 + the index of the link hashed here, or 0 for an empty slot
	links []uint64
}

// NewInterner returns an empty interner.
func NewInterner() *Interner { return &Interner{} }

// pack folds a link's two endpoints into one word, A high; ok is false
// when an endpoint is outside [0, 2³²), where no interned link lives.
func pack(l topology.Link) (key uint64, ok bool) {
	return uint64(l.A)<<32 | uint64(l.B), uint64(l.A)|uint64(l.B) <= math.MaxUint32
}

// find returns the slot that holds key, or the empty slot where it
// would go (linear probing from a Fibonacci hash). slots is not empty.
func (t *Interner) find(key uint64) int {
	mask := len(t.slots) - 1
	for i := int(key*0x9e3779b97f4a7c15>>32) & mask; ; i = (i + 1) & mask {
		if s := t.slots[i]; s == 0 || t.links[s-1] == key {
			return i
		}
	}
}

// Intern returns the dense index for l, assigning the next free index on
// first sight. l must be canonical with endpoints in the view's ID space.
func (t *Interner) Intern(l topology.Link) int {
	key, ok := pack(l)
	if !ok {
		panic(fmt.Sprintf("knowledge: interning link %v outside any ID space", l))
	}
	if i := t.Lookup(l); i >= 0 {
		return i
	}
	if 2*(len(t.links)+1) > len(t.slots) {
		t.slots = make([]int32, max(16, 2*len(t.slots)))
		for i, k := range t.links {
			t.slots[t.find(k)] = int32(i + 1)
		}
	}
	t.links = append(t.links, key)
	t.slots[t.find(key)] = int32(len(t.links))
	return len(t.links) - 1
}

// Lookup returns the index of l, or -1 if never interned.
func (t *Interner) Lookup(l topology.Link) int {
	if key, ok := pack(l); ok && len(t.slots) > 0 {
		if s := t.slots[t.find(key)]; s != 0 {
			return int(s - 1)
		}
	}
	return -1
}

// Link returns the link with dense index i.
func (t *Interner) Link(i int) topology.Link {
	key := t.links[i]
	return topology.Link{A: topology.NodeID(key >> 32), B: topology.NodeID(uint32(key))}
}

// Len returns the number of interned links.
func (t *Interner) Len() int { return len(t.links) }

// wireSig is a record's last-shipped wire signature for delta heartbeats:
// the posterior mean and distortion at the record's last meaningful
// change, plus the view version that change was stamped with.
// Mutation sites set only the record's dirty bit (one store); refreshSigs
// re-evaluates dirty records lazily when a delta is cut and stamps `at`
// only when the content moved beyond Params.DeltaEpsilon — distortion
// *aging* (Event 2's dist++) deliberately never sets the bit, because
// aging is local confidence decay every peer applies to its own copies
// and carries no news.
type wireSig struct {
	at   uint64 // view version of the last meaningful change
	mean float64
	dist int32
}

// procState is C_k[p_i]: the estimate one process keeps about another
// process (or itself). A record is its estimate and nothing more: the
// estimator is held by value, so adopting a peer's estimate (Algorithm 3's
// "adopt the best") copies it — a frozen snapshot of the source at
// adoption time, exactly what receiving a serialized heartbeat gives. The
// source's later local updates do not teleport to adopters, preserving the
// propagation delays the paper's scalability experiment (Figure 6)
// measures. What a view keeps only about its direct neighbors lives in
// peerState, not in this Π-sized array.
type procState struct {
	est         bayes.Estimator
	sig         wireSig
	dist        int32
	sinceUpdate int32 // periods since this estimate was last refreshed
	// supplier is the neighbor whose merge last supplied this estimate
	// (topology.None for self-measured or never-adopted records): Event-2
	// aging of non-neighbor estimates scales with the supplier's declared
	// inbound cadence, so a stretched gossip path doesn't decay knowledge
	// that is merely arriving slowly.
	supplier int32
	// suspicions counts the Event 2 firings — a failure observed and a
	// distortion step each — on a neighbour's record since it was last
	// adopted; a heartbeat from the neighbour undoes them (see forgive).
	suspicions int32
	mask       uint16 // the neighbours that hold this record at no greater distortion (see heard)
	dirty      bool   // the estimate changed since refreshSigs last looked (see wireSig)
	departed   bool   // tombstoned by a membership epoch change; never shipped or aged
}

// peerState is what a view keeps about a direct neighbor (or a process
// that once was one, or sent it a heartbeat) beyond its estimate: the
// sequence-gap accounting of Event 1 and the suspicion, timeout and
// cadence of Event 2. It lives beside the Π-sized record array, for the
// few processes that have one.
type peerState struct {
	neighbor  bool   // a direct neighbor of self now
	lastSeq   uint64 // C_k[p_j].seq: last heartbeat sequence received
	suspected int    // C_k[p_j].suspected: Event 2 firings since last heartbeat
	timeout   int    // ∆_k[p_j] in periods
	cadence   int    // declared inter-frame gap in periods (0 or 1 = every δ)
}

// maskSlots is how many neighbours a record's mask tracks: the first
// maskSlots peers of a view get a bit (View.slots), for the view's
// lifetime, and any later one is left out of a delta only by split
// horizon.
const maskSlots = 16

// heard books a neighbour's copy of a record, sent at distortion d by
// the neighbour with mask bit bit, into the record's mask, and reports
// whether Algorithm 3 adopts it: when the record is unknown (known is
// false) or d is lower than ours, dist. The mask has the bit of every
// neighbour whose last copy of the record it sent us was at no greater
// distortion than ours, so Algorithm 3 makes it reject ours (sibling
// horizon, see View.AppendOmitted). The neighbour holds the record at
// no greater distortion than ours if d is not greater, and after an
// adoption too. An adoption that lowers our distortion leaves it the
// only such neighbour; one at our distortion (d one below it) leaves
// the others as they were. BeginPeriod clears each mask once every
// LinkAgeTimeout periods, because a neighbour's copy ages unseen once
// its own upstream falls silent, and Unmask clears a neighbour's bit
// when what it holds is no longer known.
func heard(mask *uint16, known bool, dist, d int32, bit uint16) (adopt bool) {
	switch {
	case !known || bump(d) < dist:
		*mask = bit
	case d > dist:
		*mask &^= bit
	default:
		*mask |= bit
	}
	return !known || d < dist
}

// effCadence is the neighbor's declared heartbeat cadence with the
// classic one-frame-per-δ default (also for a nil p).
func (p *peerState) effCadence() int {
	if p == nil || p.cadence < 1 {
		return 1
	}
	return p.cadence
}

// linkState is C_k[l_i]: the estimate kept about one link, by value like
// procState. Link distortion captures only network distance (the paper
// ages only process estimates with time).
type linkState struct {
	est  bayes.Estimator
	sig  wireSig
	dist int32
	// supplier and sinceUpdate drive the remote-link flavor of Event-2
	// aging (see Params.LinkAgeTimeout): supplier is the neighbor whose
	// merge last supplied this estimate, sinceUpdate the quiet periods
	// since. Incident links (dist 0) never age and ignore both.
	sinceUpdate int32
	supplier    int32
	known       bool // false: a slot no link of this view occupies
	dirty       bool
	mask        uint16 // as procState.mask
}

// uniform is the uniform-prior estimator every new record starts from.
var uniform = *bayes.New()

// Link records live in fixed chunks that never move, so a record's
// address is stable for the view's lifetime and learning a link never
// copies the others. A chunk is 16 records: a view of a few processes
// pays for few empty slots, and 16 × 64 bytes is exactly the 1,024-byte
// size class.
const chunkLen = 16

// View is (Λ_k, C_k): everything process self believes about the system.
// It is a pure state machine — time is injected by calling BeginPeriod
// once per heartbeat period δ, and message arrival by MergeSnapshot. It
// is not safe for concurrent use; the live node wraps it in a mutex.
type View struct {
	self      topology.NodeID
	n         int
	params    Params
	interner  *Interner
	procs     []procState
	links     []*[chunkLen]linkState // link records by interner index, in chunks
	peers     []*peerState           // by process; nil for one that never was a neighbor
	slots     []topology.NodeID      // the peer of each link-mask bit, in bit order; append-only
	nDeparted int                    // tombstoned processes; 0 keeps membership checks off hot paths
	selfSeq   uint64                 // heartbeat sequencer C_k[p_k].seq
	version   uint64                 // monotonic mutation counter, see Version
	sigVer    uint64                 // version the wire signatures were last refreshed at
	verdicts  [2]Verdicts            // on received process, then link, records (see Verdicts)
}

// NewView builds the initial view of process self in a system of n
// processes (Π is known a priori, per the paper's simplifying assumption)
// whose direct neighbors are given. A shared interner may be passed;
// nil creates a private one.
func NewView(self topology.NodeID, n int, neighbors []topology.NodeID, interner *Interner, params Params) (*View, error) {
	if self < 0 || int(self) >= n {
		return nil, fmt.Errorf("knowledge: self %d out of range [0,%d)", self, n)
	}
	params = params.withDefaults()
	if interner == nil {
		interner = NewInterner()
	}
	v := &View{
		self:     self,
		params:   params,
		interner: interner,
	}
	v.addProcs(n)
	v.procs[self].dist = 0 // p_k sees itself with no distortion
	v.procs[self].dirty = true
	for _, nb := range neighbors {
		if nb == self || nb < 0 || int(nb) >= n {
			return nil, fmt.Errorf("knowledge: invalid neighbor %d", nb)
		}
		v.addPeer(nb).neighbor = true
		v.incident(nb)
	}
	return v, nil
}

// addProcs extends the process space to n processes; a new one starts
// as a record nothing is known about (the paper's d = ∞ initialization).
func (v *View) addProcs(n int) {
	v.procs = slices.Grow(v.procs, n-v.n)
	for range n - v.n {
		v.procs = append(v.procs, procState{est: uniform, dist: DistInf, supplier: int32(topology.None)})
	}
	v.peers = append(v.peers, make([]*peerState, n-v.n)...)
	v.n = n
}

// incident returns the record of the link self—j, which self measures
// itself, learning it with zero distortion if the view does not know it.
func (v *View) incident(j topology.NodeID) (ls *linkState, learned bool) {
	ls = v.slot(v.interner.Intern(topology.NewLink(v.self, j)))
	if ls.known {
		return ls, false
	}
	*ls = linkState{est: uniform, known: true, dirty: true, supplier: int32(topology.None)}
	return ls, true
}

// chunk returns link chunk c, allocating the chunks up to it.
func (v *View) chunk(c int) *[chunkLen]linkState {
	for len(v.links) <= c {
		v.links = append(v.links, new([chunkLen]linkState))
	}
	return v.links[c]
}

// slot returns the record of link index idx, known or not.
func (v *View) slot(idx int) *linkState { return &v.chunk(idx / chunkLen)[idx%chunkLen] }

// link returns the record of link index idx, or nil when the view does
// not know that link.
func (v *View) link(idx int) *linkState {
	if idx < 0 || idx/chunkLen >= len(v.links) || !v.links[idx/chunkLen][idx%chunkLen].known {
		return nil
	}
	return &v.links[idx/chunkLen][idx%chunkLen]
}

// knownLinks yields every link record the view knows, with its interner
// index, in index order.
func (v *View) knownLinks() iter.Seq2[int, *linkState] {
	return func(yield func(int, *linkState) bool) {
		for c, chunk := range v.links {
			for i := range chunk {
				if chunk[i].known && !yield(c*chunkLen+i, &chunk[i]) {
					return
				}
			}
		}
	}
}

// addPeer returns the neighbor bookkeeping of j, starting it if needed.
func (v *View) addPeer(j topology.NodeID) *peerState {
	if v.peers[j] == nil {
		v.peers[j] = &peerState{timeout: v.params.InitialTimeout}
		if len(v.slots) < maskSlots {
			v.slots = append(v.slots, j)
		}
	}
	return v.peers[j]
}

// peerBit is j's bit in record masks, 0 when it has none.
func (v *View) peerBit(j topology.NodeID) uint16 {
	if i := slices.Index(v.slots, j); i >= 0 {
		return 1 << i
	}
	return 0
}

// Unmask clears j's bit from every record mask, so no record stays out
// of the deltas toward j on what j sent before. Call it when j is sent
// a full snapshot: j never acked this view, or it restarted and acks
// nothing, and either way what it holds is unknown. A restarted
// neighbour adopts our copies one distortion step above ours, with us
// as supplier, and split horizon keeps it from ever sending them back,
// so no merge would clear its old bits.
func (v *View) Unmask(j topology.NodeID) {
	bit := v.peerBit(j)
	if bit == 0 {
		return
	}
	for i := range v.procs {
		v.procs[i].mask &^= bit
	}
	for _, ls := range v.knownLinks() {
		ls.mask &^= bit
	}
}

// Self returns the owning process ID.
func (v *View) Self() topology.NodeID { return v.self }

// NumProcs returns |Π|.
func (v *View) NumProcs() int { return v.n }

// SelfSeq returns the current heartbeat sequence number.
func (v *View) SelfSeq() uint64 { return v.selfSeq }

// Version returns a monotonic counter that advances whenever the view's
// estimates change: BeginPeriod, OnRecover, and every merge that adopted
// at least one estimate or learned a link. Consumers that derive
// expensive artifacts from the view (the node's broadcast plan cache)
// compare versions to reuse results across unchanged views, and delta
// heartbeats (DeltaSince) use versions as the acked watermark peers
// resume from.
func (v *View) Version() uint64 { return v.version }

// Interner exposes the link index table (shared in simulations).
func (v *View) Interner() *Interner { return v.interner }

// Grow extends the view's process space to newN (a membership epoch added
// nodes): new processes start from the uniform prior with infinite
// distortion, exactly like unknown processes at construction. Shrinking is
// not supported — departed processes are tombstoned with MarkDeparted so
// NodeID-indexed state never moves. Growing bumps the view version (the
// membership change invalidates derived plans).
func (v *View) Grow(newN int) {
	if newN <= v.n {
		return
	}
	v.addProcs(newN)
	v.version++
}

// MarkDeparted tombstones a process that left the membership: its record
// is dropped from every future snapshot and delta (so heartbeats carry no
// state for it and the ack chain stays gap-free), it is never aged or
// suspected again, inbound records naming it are ignored (a stale peer
// cannot resurrect it), and every known link incident to it is forgotten
// so estimated configurations route around it. Tombstoning an unknown or
// already-departed ID is a no-op; the version is bumped only on change.
func (v *View) MarkDeparted(id topology.NodeID) {
	if id < 0 || int(id) >= v.n || id == v.self || v.procs[id].departed {
		return
	}
	ps := &v.procs[id]
	ps.departed = true
	ps.dirty = false
	if p := v.peers[id]; p != nil {
		p.suspected, p.neighbor = 0, false
	}
	v.nDeparted++
	for idx, ls := range v.knownLinks() {
		if l := v.interner.Link(idx); l.A == id || l.B == id {
			*ls = linkState{}
		}
	}
	v.version++
}

// Departed reports whether id was tombstoned by a membership change.
func (v *View) Departed(id topology.NodeID) bool {
	return id >= 0 && int(id) < v.n && v.procs[id].departed
}

// AddNeighbor registers a new direct neighbor (a joiner whose announced
// links include self): the link is learned with zero distortion so the
// estimated configuration includes it immediately, before the first
// heartbeat arrives. Re-adding an existing neighbor is a no-op; adding a
// departed or out-of-range process is an error.
func (v *View) AddNeighbor(nb topology.NodeID) error {
	if nb == v.self || nb < 0 || int(nb) >= v.n {
		return fmt.Errorf("knowledge: invalid neighbor %d", nb)
	}
	if v.procs[nb].departed {
		return fmt.Errorf("knowledge: neighbor %d is departed", nb)
	}
	p := v.addPeer(nb)
	if p.neighbor {
		return nil
	}
	p.neighbor = true
	if ls, learned := v.incident(nb); !learned {
		ls.dist, ls.sinceUpdate, ls.dirty, ls.mask = 0, 0, true, 0
	}
	// The neighbor's sequence accounting restarts from scratch: the first
	// frame books no gap (lastSeq 0) and suspicion state is clean.
	p.lastSeq, p.suspected = 0, 0
	v.procs[nb].sinceUpdate = 0
	v.version++
	return nil
}

// IsNeighbor reports whether j is a direct neighbor of self.
func (v *View) IsNeighbor(j topology.NodeID) bool {
	p := v.peers[j]
	return p != nil && p.neighbor
}

// KnownLinks returns the links the view currently knows about.
func (v *View) KnownLinks() []topology.Link {
	var out []topology.Link
	for i := range v.knownLinks() {
		out = append(out, v.interner.Link(i))
	}
	return out
}

// BeginPeriod advances one heartbeat period δ. It runs Event 3 (the
// process survived another tick, so its self-reliability belief improves)
// and Event 2 for every estimate that went stale (distortion aging, and
// suspicion plus belief decreases for silent neighbors). It also
// increments the heartbeat sequencer; the caller should then obtain the
// current view (directly or via Snapshot) and send it to all neighbors.
func (v *View) BeginPeriod() {
	v.selfSeq++
	v.version++
	v.procs[v.self].est.ObserveSuccess(1) // Event 3: ∆tick = δ
	v.procs[v.self].dirty = true

	// Neighbours' copies age unseen, and aging ships nothing: a copy at
	// no greater distortion than ours, which its mask bit keeps ours
	// from, can fall behind ours once its upstream is silent. So each
	// record's mask is cleared once every LinkAgeTimeout periods, and a
	// record re-stamped after that ships to every neighbour that has not
	// reported its copy again. Clearing ships nothing by itself. The
	// period of the clearing is set by the record — a process's ID, a
	// link's endpoints — so different records clear in different periods
	// and their re-ships do not come in one burst; neighbours whose
	// sequencers agree clear a record in the same period.
	every := uint64(v.params.LinkAgeTimeout)
	for j := range v.procs {
		if topology.NodeID(j) == v.self {
			continue
		}
		ps := &v.procs[j]
		if ps.departed {
			continue // tombstoned: never aged or suspected again
		}
		if (v.selfSeq+uint64(j))%every == 0 {
			ps.mask = 0
		}
		ps.sinceUpdate++
		// Expected arrivals scale with the declared heartbeat cadence of
		// whoever delivers the news. For a direct neighbor that is the
		// neighbor itself: one promised frame every c periods means it is
		// only "silent" after timeout·c quiet periods, so stretched
		// neighbors are not falsely suspected. For a non-neighbor it is
		// the supplying neighbor's inbound cadence — its estimate can only
		// arrive as fast as the gossip hop feeding us, so a stretched
		// supply route ages the copy slower instead of decaying knowledge
		// that is merely in transit.
		timeout, scale := v.params.InitialTimeout, 1
		p := v.peers[j]
		if p != nil && p.neighbor {
			timeout, scale = p.timeout, p.effCadence()
		} else {
			p, scale = nil, v.supplierCadence(ps.supplier)
		}
		if int(ps.sinceUpdate) < timeout*scale {
			continue
		}
		// Event 2: no update of p_j's estimate for ∆_k[p_j].
		ps.sinceUpdate = 0
		if ps.dist != DistInf {
			ps.dist++ // knowledge gets distorted with time
		}
		if p != nil {
			p.suspected++
			ps.suspicions++
			ps.est.ObserveFailure(1)
			ps.dirty = true
			// Link evidence is intentionally NOT decreased here; see the
			// package comment — losses are booked exactly from sequence
			// gaps on the next reception, keeping the link posterior
			// unbiased and uncontaminated by sender downtime.
		}
	}

	// Event 2 for remote links: a copy nobody refreshes decays instead of
	// freezing (churn that lengthens a gossip path would otherwise pin a
	// stale estimate at its old, low distortion forever — fresher copies
	// could never win adoption). Aging is local confidence decay, not
	// news, so like process aging it never sets the dirty bit; the aged
	// distortion ships whenever the record is next re-shipped anyway.
	// Incident links (dist 0) are self-measured every reception and never
	// age; unknown links (DistInf) have nothing left to decay.
	for idx, ls := range v.knownLinks() {
		if l := v.interner.Link(idx); (v.selfSeq+uint64(l.A+l.B))%every == 0 {
			ls.mask = 0
		}
		if ls.dist == 0 || ls.dist == DistInf {
			continue
		}
		ls.sinceUpdate++
		if int(ls.sinceUpdate) < v.params.LinkAgeTimeout*v.supplierCadence(ls.supplier) {
			continue
		}
		ls.sinceUpdate = 0
		ls.dist = bump(ls.dist)
	}
}

// supplierCadence is the declared inbound cadence of the neighbor that
// last supplied an adopted estimate, or 1 when the record is
// self-measured, never adopted, or its supplier is not currently a
// direct neighbor (a departed or demoted supplier can't deliver news at
// any cadence, so the copy ages on the unscaled clock).
func (v *View) supplierCadence(sup int32) int {
	if sup < 0 || int(sup) >= v.n || v.peers[sup] == nil || !v.peers[sup].neighbor {
		return 1
	}
	return v.peers[sup].effCadence()
}

// OnRecover is Event 4: the process just returned from a crash that
// lasted missedTicks heartbeat periods; its self-reliability belief is
// decreased proportionally.
func (v *View) OnRecover(missedTicks int) {
	v.version++
	v.procs[v.self].est.ObserveFailure(missedTicks)
	v.procs[v.self].dirty = true
}

// Suspected reports whether this view currently suspects neighbor j
// (Event 2 fired since j's last heartbeat). Non-neighbors are never
// suspected — their estimates only age.
func (v *View) Suspected(j topology.NodeID) bool {
	p := v.peers[j]
	return p != nil && p.neighbor && p.suspected > 0
}

// NeighborCadence reports the heartbeat cadence neighbor j declared on
// its last frame (1 = classic), for tests and introspection.
func (v *View) NeighborCadence(j topology.NodeID) int { return v.peers[j].effCadence() }

// bump increments a distortion, saturating at DistInf.
func bump(d int32) int32 {
	if d >= DistInf-1 {
		return DistInf
	}
	return d + 1
}

// wireDist is a distortion off the wire as a record holds it, clamped
// into [0, DistInf].
func wireDist(d int) int32 {
	return int32(min(max(d, 0), DistInf))
}

// maxDeclaredCadence clamps the heartbeat cadence a peer may declare,
// mirroring wire.MaxCadence (the wire package imports this one, so the
// bound is restated here): the declared cadence multiplies this view's
// suspicion timeout for that neighbor, and an unbounded declaration would
// let a hostile peer suppress its own failure detection forever.
const maxDeclaredCadence = 256

// reconcileLink performs the sequence-gap accounting of Event 1 for the
// direct link to the sender (lines 19–25, with the success-evidence fix
// documented in the package comment).
//
// cadence is the inter-frame gap, in heartbeat periods, the sender
// declares until its next frame (1 = the paper's classic one heartbeat
// per δ). The sender consumes one sequence number per period whether or
// not it sends, so under a declared cadence c the expected sequence gap
// between consecutive received frames is c, not 1, and the frames lost
// in a gap g are (g-1)/c — g = c means none, g = 2c means one. Gap
// accounting uses the cadence the *previous* frame declared (that was
// the spacing promise covering this gap); the newly declared cadence is
// stored for the next gap and for Event 2's scaled suspicion timeout. A
// sender may break its promise by sending early, which books no
// spurious loss: an early frame only shrinks g.
func (v *View) reconcileLink(from topology.NodeID, senderSeq uint64, cadence int) {
	ps := v.addPeer(from)
	ls, learned := v.incident(from)
	if learned {
		// First contact with a previously unknown neighbor (dynamic
		// topologies): the link is learned with zero distortion.
		ps.neighbor = true
	}
	ls.dirty = true // success/failure evidence below moves the estimate

	missed := 0
	switch {
	case ps.lastSeq == 0:
		// First ever contact: the gap to seq 0 reflects the receiver
		// joining late, not losses; book no failure evidence.
	case senderSeq > ps.lastSeq:
		// Divide the raw sequence gap by the promised spacing so a
		// stretched neighbor is not over-counted as lossy: the skipped
		// periods consumed sequence numbers but carried no frames.
		missed = int(senderSeq-ps.lastSeq-1) / ps.effCadence()
	default:
		// senderSeq <= lastSeq means the sender restarted its sequencer
		// after a crash (volatile memory); no detectable gap.
	}
	if missed > 0 {
		// Exactly `missed` heartbeats were sent and never arrived: ground-
		// truth loss evidence revealed by the sequence numbers.
		ls.est.ObserveFailure(missed)
	}
	if ps.suspected-missed > 1 && ps.timeout < v.params.MaxTimeout {
		// Suspicions clearly outpaced real losses: the timeout is too
		// aggressive for this neighbor, relax it (Algorithm 4 line 23).
		ps.timeout++
	}
	ls.est.ObserveSuccess(1) // the heartbeat that just arrived
	ps.suspected = 0
	ps.lastSeq = senderSeq
	v.procs[from].sinceUpdate = 0
	ps.cadence = min(max(cadence, 1), maxDeclaredCadence)
}

// CrashEstimate returns the current point estimate of P_i and its
// distortion (DistInf when nothing is known).
func (v *View) CrashEstimate(i topology.NodeID) (mean float64, dist int) {
	ps := &v.procs[i]
	return ps.est.Mean(), int(ps.dist)
}

// LossEstimate returns the current point estimate of L for link l and its
// distortion; ok is false when the link is unknown.
func (v *View) LossEstimate(l topology.Link) (mean float64, dist int, ok bool) {
	ls := v.link(v.interner.Lookup(l))
	if ls == nil {
		return 0, DistInf, false
	}
	return ls.est.Mean(), int(ls.dist), true
}

// ProcEstimator exposes the Bayesian estimator for process i (read-only
// use; experiments inspect convergence). It points into the view's
// record, which later merges and periods update in place; the pointer
// stays valid until the view Grows, the one call that moves process
// records. Clone it to keep a snapshot.
func (v *View) ProcEstimator(i topology.NodeID) *bayes.Estimator { return &v.procs[i].est }

// LinkEstimator exposes the Bayesian estimator for link l, or nil. It
// points into the view's record, which never moves: the pointer stays
// valid for the view's lifetime, reading whatever the record holds (a
// forgotten link's record reads as zero).
func (v *View) LinkEstimator(l topology.Link) *bayes.Estimator {
	if ls := v.link(v.interner.Lookup(l)); ls != nil {
		return &ls.est
	}
	return nil
}

// EstimatedConfig materializes the view into a fresh (G, C) pair; see
// EstimatedConfigInto.
func (v *View) EstimatedConfig() (*topology.Graph, *config.Config, error) {
	g, c := new(topology.Graph), new(config.Config)
	if err := v.EstimatedConfigInto(g, c); err != nil {
		return nil, nil, err
	}
	return g, c, nil
}

// EstimatedConfigInto materializes the view into a concrete (G, C) pair
// for the MRT and optimize() machinery, overwriting g and c and reusing
// their storage: the graph contains every known link (in interner order,
// which fixes the dense link indices), crash probabilities are posterior
// means (unknown processes keep the uniform-prior mean 0.5, which steers
// the MRT away from them until news arrives), and loss probabilities are
// posterior means. Departed processes are tombstoned in the materialized
// graph (their links were already forgotten by MarkDeparted), so trees
// span only live members. On error g and c are left half-filled.
func (v *View) EstimatedConfigInto(g *topology.Graph, c *config.Config) error {
	g.Reset(v.n)
	for i := range v.knownLinks() {
		l := v.interner.Link(i)
		if _, err := g.AddLink(l.A, l.B); err != nil {
			return err
		}
	}
	for i := range v.procs {
		if v.procs[i].departed {
			if err := g.RemoveNode(topology.NodeID(i)); err != nil {
				return err
			}
		}
	}
	c.Reset(g)
	for i := range v.procs {
		if v.procs[i].departed {
			continue
		}
		if err := c.SetCrash(topology.NodeID(i), v.procs[i].est.Mean()); err != nil {
			return err
		}
	}
	for i, ls := range v.knownLinks() {
		l := v.interner.Link(i)
		if err := c.SetLossBetween(l.A, l.B, ls.est.Mean()); err != nil {
			return err
		}
	}
	return nil
}

// Criterion is the convergence test of Figures 5 and 6: an estimate has
// converged when its MAP interval is within Slack intervals of the one
// containing the truth and holds at least MinBelief posterior mass.
type Criterion struct {
	Slack     int
	MinBelief float64
}

// DefaultCriterion matches the experiment driver defaults. The paper does
// not state its exact criterion ("the Bayesian networks find the right
// probability interval accurately"); two intervals of slack over U = 100
// — i.e. the estimate is within ±~0.025 of the truth — with a modest mass
// requirement lands the convergence effort in the paper's range while
// staying a meaningful accuracy guarantee.
var DefaultCriterion = Criterion{Slack: 2, MinBelief: 0.1}

// ConvergedTo reports whether this view has learned the full ground truth:
// every link of the true topology is known and every process and link
// estimate satisfies the criterion. Estimates about processes the view has
// never heard of (distortion ∞) fail the check.
func (v *View) ConvergedTo(truth *config.Config, crit Criterion) bool {
	g := truth.Graph()
	for i := range v.procs {
		if v.procs[i].departed || !g.Active(topology.NodeID(i)) {
			continue // departed members are not part of the ground truth
		}
		if v.procs[i].dist == DistInf {
			return false
		}
		if !v.procs[i].est.Converged(truth.Crash(topology.NodeID(i)), crit.Slack, crit.MinBelief) {
			return false
		}
	}
	for li := 0; li < g.NumLinks(); li++ {
		ls := v.link(v.interner.Lookup(g.Link(li)))
		if ls == nil || !ls.est.Converged(truth.Loss(li), crit.Slack, crit.MinBelief) {
			return false
		}
	}
	return true
}
