package node

import (
	"container/list"
	"sync"

	"adaptivecast/internal/mrt"
	"adaptivecast/internal/topology"
)

// defaultForwardCacheSize bounds the forwarder tree cache when the
// configuration leaves it zero. Steady traffic usually flows down one
// tree per active broadcaster, so a handful of entries already absorbs
// the common case; the cache is per-node and each entry holds one parent
// vector plus the rebuilt tree (O(n) memory).
const defaultForwardCacheSize = 16

// forwardCache memoizes mrt.FromParents on the receive path: every data
// frame carries its tree as a parent vector, and a forwarder relaying a
// stream of broadcasts down one tree would otherwise rebuild the same
// tree per frame. Entries are keyed by an FNV-1a hash of (root, parents)
// and verified against the cached tree's own parent vector on hit, so a
// hash collision degrades to a miss instead of forwarding along the wrong
// tree. An entry holds nothing of the frame it was built from: the
// decoder's parent vector is reused for the next frame (wire.Scratch).
//
// The cache has its own mutex (lock-split like the rest of the node); the
// cached trees are immutable after construction and safe to share across
// concurrent forwards.
type forwardCache struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used
	byKey map[uint64]*list.Element
}

type forwardEntry struct {
	key  uint64
	tree *mrt.Tree
}

func newForwardCache(capacity int) *forwardCache {
	return &forwardCache{
		cap:   capacity,
		order: list.New(),
		byKey: make(map[uint64]*list.Element, capacity),
	}
}

// fnv1a hashes the tree identity (root plus parent vector).
func fnv1a(root topology.NodeID, parents []topology.NodeID) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
	}
	mix(uint64(int64(root)))
	for _, p := range parents {
		mix(uint64(int64(p)))
	}
	return h
}

// treeIs reports whether t is the tree (root, parents) describes.
func treeIs(t *mrt.Tree, root topology.NodeID, parents []topology.NodeID) bool {
	if t.Root() != root || t.NumNodes() != len(parents) {
		return false
	}
	for v, p := range parents {
		if t.Parent(topology.NodeID(v)) != p {
			return false
		}
	}
	return true
}

// get returns the cached tree for (root, parents), promoting the entry.
func (c *forwardCache) get(root topology.NodeID, parents []topology.NodeID) (*mrt.Tree, bool) {
	key := fnv1a(root, parents)
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		return nil, false
	}
	tree := el.Value.(*forwardEntry).tree
	if !treeIs(tree, root, parents) {
		return nil, false // hash collision: treat as a miss
	}
	c.order.MoveToFront(el)
	return tree, true
}

// clear drops every entry — called on a membership epoch change, whose
// trees (sized to the old ID space or routing through departed members)
// must never serve the new epoch.
func (c *forwardCache) clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.order.Init()
	for k := range c.byKey {
		delete(c.byKey, k)
	}
}

// put inserts a rebuilt tree, evicting the least recently used entry when
// full. parents is only hashed, never retained: it is the decoder's
// reused storage, and tree owns its copy of the vector (mrt.FromParents).
func (c *forwardCache) put(root topology.NodeID, parents []topology.NodeID, tree *mrt.Tree) {
	key := fnv1a(root, parents)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		// Same key raced in, or a collision: newest wins either way.
		el.Value = &forwardEntry{key: key, tree: tree}
		c.order.MoveToFront(el)
		return
	}
	c.byKey[key] = c.order.PushFront(&forwardEntry{key: key, tree: tree})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.byKey, oldest.Value.(*forwardEntry).key)
	}
}
