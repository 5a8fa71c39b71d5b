package node

// This file holds the package's adaptivelint directives (run by
// cmd/adaptivelint in CI).
//
// The epochfence directive is this package's opt-in to the epoch-gating
// rule (internal/analysis/epochfence): every FrameKind dispatch case for
// the epoch-bearing kinds must call epochGate before touching any node
// state — see Node.handle and Node.epochGate.
//
// The goroutines, bufpool and bufshared directives are the package's
// lifecycle contracts: every go statement must declare the stop signal
// its body observes (goroleak), and every value obtained from one of the
// package's pools — an encode buffer, a decode scratch, a replan or a
// heartbeat-period workspace, each an instance of the one generic
// pool.Pool — or release callback fanned out through sharedRelease must
// be spent exactly once on every path (buflife). Channel ownership is
// declared per field on the Node struct (chanowner).
//
//adaptivelint:epochfence kinds=FrameData,FrameKnowledgeDelta gate=epochGate
//adaptivelint:goroutines checked
//adaptivelint:bufpool type=pool.Pool[encBuf] get=Get put=Put releaser=Releaser
//adaptivelint:bufpool type=pool.Pool[wire.Scratch] get=Get put=Put
//adaptivelint:bufpool type=pool.Pool[planWorkspace] get=Get put=Put
//adaptivelint:bufpool type=pool.Pool[tickWorkspace] get=Get put=Put
//adaptivelint:bufshared type=sharedRelease acquire=acquire
