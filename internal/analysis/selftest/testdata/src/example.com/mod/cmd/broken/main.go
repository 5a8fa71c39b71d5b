// Command broken seeds exactly one violation per adaptivelint analyzer,
// so the self-test can prove the lint gate actually fails when an
// invariant breaks:
//
//   - internalboundary: a cmd/ package importing internal/engine
//   - wirekind:         a FrameKind switch missing frameB
//   - buflife:          a pooled buffer leaked on the early-return path,
//     and a tick workspace from the generic pool taken and never put back
package main

import (
	"example.com/mod/internal/engine"
	"example.com/mod/pool"
)

//adaptivelint:bufpool type=encPool get=get put=put releaser=releaser
//adaptivelint:bufpool type=pool.Pool[tickWorkspace] get=Get put=Put

type FrameKind byte

const (
	frameA FrameKind = 1
	frameB FrameKind = 2
)

type encBuf struct{ b []byte }

type encPool struct{}

func (p *encPool) get() *encBuf               { return &encBuf{} }
func (p *encPool) put(eb *encBuf)             {}
func (p *encPool) releaser(eb *encBuf) func() { return func() { p.put(eb) } }

// leakyEncode drops the pooled buffer on the early return (buflife).
func leakyEncode(p *encPool, fail bool) []byte {
	eb := p.get()
	if fail {
		return nil
	}
	out := eb.b
	p.put(eb)
	return out
}

type tickWorkspace struct{ outs []int }

var tickWorkspaces pool.Pool[tickWorkspace]

// leakyTick takes a period workspace and never puts it back (buflife).
func leakyTick(neighbors int) int {
	ws := tickWorkspaces.Get()
	ws.outs = append(ws.outs[:0], neighbors)
	return len(ws.outs)
}

func main() {
	_ = leakyEncode(&encPool{}, true)
	_ = leakyTick(3)

	k := FrameKind(1)
	switch k { // wirekind: frameB unhandled
	case frameA:
	}

	_ = engine.Tick() // internalboundary: cmd/ reaching around the facade
}
