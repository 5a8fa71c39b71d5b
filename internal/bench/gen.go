package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"adaptivecast"
)

// inputs is everything a workload hands the program under test: the
// topology, the per-link loss, the links whose loss switches during the
// period phase, and the broadcast bodies (through bodyFor). All of it is a
// pure function of (workload, seed); the program never sees the seed.
type inputs struct {
	seed  int64
	graph *adaptivecast.Topology
	// loss[i] is the base loss probability of graph.Link(i); all zero on
	// the TCP workload, whose links are real loopback sockets.
	loss []float64
	// flap lists the link indices that switch between base loss and
	// base+flapExtra every flapEvery periods (empty unless the workload
	// flaps).
	flap []int
	// perm maps the workload's abstract process ids (the ones its origin
	// list is written in) to the ids of this seed's copy.
	perm []int
}

const (
	bodySize = 64
	// maxLoss is the top of the per-link loss range.
	maxLoss = 0.10
	// flapExtra is added to a flapping link's base loss while it is in
	// its bad state.
	flapExtra = 0.15
)

// shapeSeed draws each workload's abstract graph. The shape of the work —
// how deep the maximum-reliability tree is, how many copies the allocator
// plans — is a property of the graph and its losses, and across freely
// drawn graphs it moves latency, throughput and Tick time by ±10–17 %
// (measured over ten seeds), more than any bound this benchmark could
// then enforce. So every seed gets an isomorphic copy of one graph per
// workload: the same shape and the same loss on the same abstract link,
// under a seeded permutation of the process ids. What still varies with
// the seed is everything that depends on ids or on chance: adjacency as
// the program sees it, tick order, tie-breaks, which copies the links
// drop, the bodies.
const shapeSeed = 7

// genFabric draws a connected random graph with conn links per process
// and a per-link loss spread over [0, maxLoss], then relabels it by seed.
// The losses are a stratified sample (one value per 1/L-wide stratum)
// rather than L independent draws: still uniform on [0, maxLoss] per
// link, with the total loss mass fixed.
func genFabric(seed int64, n, conn, flaps int) (*inputs, error) {
	shape := rand.New(rand.NewSource(shapeSeed))
	g, err := adaptivecast.RandomConnected(n, conn, shape)
	if err != nil {
		return nil, fmt.Errorf("generate topology: %w", err)
	}
	L := g.NumLinks()
	loss := make([]float64, L)
	for i, slot := range shape.Perm(L) {
		loss[i] = maxLoss * (float64(slot) + shape.Float64()) / float64(L)
	}
	if flaps > L {
		flaps = L
	}
	return relabel(seed, g, loss, shape.Perm(L)[:flaps])
}

// genRing draws an n-process ring plus two chords, lossless, relabelled
// by seed.
func genRing(seed int64, n int) (*inputs, error) {
	shape := rand.New(rand.NewSource(shapeSeed))
	g, err := adaptivecast.Ring(n)
	if err != nil {
		return nil, fmt.Errorf("generate topology: %w", err)
	}
	for g.NumLinks() < n+2 {
		a := adaptivecast.NodeID(shape.Intn(n))
		b := adaptivecast.NodeID(shape.Intn(n))
		if a == b || g.HasLink(a, b) {
			continue
		}
		if _, err := g.AddLink(a, b); err != nil {
			return nil, fmt.Errorf("generate topology: %w", err)
		}
	}
	return relabel(seed, g, make([]float64, g.NumLinks()), nil)
}

// relabel returns the inputs for an isomorphic copy of g under the
// seed's permutation of process ids. perm maps abstract ids to the ids
// the program sees; link i of the copy is link i of g.
func relabel(seed int64, g *adaptivecast.Topology, loss []float64, flap []int) (*inputs, error) {
	n := g.NumNodes()
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	out := adaptivecast.NewTopology(n)
	for _, l := range g.Links() {
		if _, err := out.AddLink(adaptivecast.NodeID(perm[l.A]), adaptivecast.NodeID(perm[l.B])); err != nil {
			return nil, fmt.Errorf("generate topology: %w", err)
		}
	}
	return &inputs{seed: seed, graph: out, loss: loss, flap: flap, perm: perm}, nil
}

// lossAt is the configured loss of link i during the given period of the
// period phase (flapping links alternate every flapEvery periods).
func (in *inputs) lossAt(i int, bad bool) float64 {
	if bad {
		return in.loss[i] + flapExtra
	}
	return in.loss[i]
}

// bodyFor fills dst (bodySize bytes) with the body of the k-th broadcast
// of a run: the index itself, then a xorshift stream keyed by (seed, k).
// The checker regenerates it on every delivery.
func bodyFor(dst []byte, seed int64, k uint64) {
	binary.LittleEndian.PutUint64(dst, k)
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ (k+1)*0xD1B54A32D192ED03
	if x == 0 {
		x = 1
	}
	for off := 8; off+8 <= len(dst); off += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(dst[off:], x)
	}
}
