package node

// This file is the node's machine-readable lock hierarchy: the lockorder
// analyzer (internal/analysis/lockorder, run by cmd/adaptivelint in CI)
// reads the directives below and fails the build when any function
// acquires these locks out of rank order, nests two same-rank leaves, or
// calls into the transport while holding the view lock. The prose
// version of this hierarchy lives on the Node struct's field comments;
// this file is the enforced version — keep the two in sync when the
// locking story changes.
//
// Ranks increase inward: a goroutine holding a lock may only acquire
// locks of strictly greater rank. memberMu is the outermost (whole
// membership applications), planMu may take viewMu while revalidating
// the plan cache, and everything at rank 40 is a leaf — nothing else is
// acquired while holding it. MemStorage.mu sits below leaseMu because
// Tick and ensureSeqLease call Storage.SaveMark while holding the lease
// lock.
//
// viewMu is declared noblockingcalls: the view lock serializes every
// heartbeat merge, so holding it across a transport send would let one
// slow peer backpressure the whole knowledge plane (the PR 2 lock-split
// exists to prevent exactly that).
//
// The epochfence directive is this package's opt-in to the epoch-gating
// rule (internal/analysis/epochfence): every FrameKind dispatch case for
// the epoch-bearing kinds must call epochGate before touching any node
// state — see Node.handle and Node.epochGate.
//
// The goroutines, bufpool and bufshared directives are the package's
// lifecycle contracts (wave-2 analyzers): every go statement must
// declare the stop signal its body observes (goroleak), and every value
// obtained from one of the package's pools — an encode buffer, a decode
// scratch, a replan or a heartbeat-period workspace, each an instance of
// the one generic pool.Pool — or release callback fanned out through
// sharedRelease must be spent exactly once on every path (buflife).
// Channel ownership is declared per field on the Node struct (chanowner).
//
//adaptivelint:lockrank Node.memberMu=10 Node.planMu=20 Node.viewMu=30
//adaptivelint:lockrank Node.reannMu=40 Node.peerMu=40 Node.cadMu=40 Node.leaseMu=40
//adaptivelint:lockrank deliveredSet.mu=40
//adaptivelint:lockrank MemStorage.mu=50
//adaptivelint:noblockingcalls Node.viewMu
//adaptivelint:blockingpkg adaptivecast/internal/transport adaptivecast/internal/lanes
//adaptivelint:epochfence kinds=FrameData,FrameKnowledgeDelta gate=epochGate
//adaptivelint:goroutines checked
//adaptivelint:bufpool type=pool.Pool[encBuf] get=Get put=Put releaser=Releaser
//adaptivelint:bufpool type=pool.Pool[wire.Scratch] get=Get put=Put
//adaptivelint:bufpool type=pool.Pool[planWorkspace] get=Get put=Put
//adaptivelint:bufpool type=pool.Pool[tickWorkspace] get=Get put=Put
//adaptivelint:bufshared type=sharedRelease acquire=acquire
