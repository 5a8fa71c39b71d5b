package node

// This file holds the package's adaptivelint directives (run by
// cmd/adaptivelint in CI).
//
// The bufpool and bufshared directives are the package's buffer
// lifecycle contracts (buflife): every value obtained from one of the
// package's pools — an encode buffer, a decode scratch, a replan or a
// heartbeat-period workspace, each an instance of the one generic
// pool.Pool — or release callback fanned out through sharedRelease must
// be spent exactly once on every path.
//
//adaptivelint:bufpool type=pool.Pool[encBuf] get=Get put=Put releaser=Releaser
//adaptivelint:bufpool type=pool.Pool[wire.Scratch] get=Get put=Put
//adaptivelint:bufpool type=pool.Pool[planWorkspace] get=Get put=Put
//adaptivelint:bufpool type=pool.Pool[tickWorkspace] get=Get put=Put
//adaptivelint:bufshared type=sharedRelease acquire=acquire
