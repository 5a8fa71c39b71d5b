// Command broken seeds exactly one violation per adaptivelint analyzer,
// so the self-test can prove the lint gate actually fails when an
// invariant breaks:
//
//   - internalboundary: a cmd/ package importing internal/engine
//   - atomicfields:     copying an atomic.Int64 field
//   - wirekind:         a FrameKind switch missing frameB
//   - epochfence:       the frameA case never calls the declared gate
//   - chanowner:        a send on the queue channel outside its owner
//   - buflife:          a pooled buffer leaked on the early-return path,
//     and a tick workspace from the generic pool taken and never put back
//   - goroleak:         a launch whose body never observes its stop
package main

import (
	"sync/atomic"

	"example.com/mod/internal/engine"
	"example.com/mod/pool"
)

//adaptivelint:epochfence kinds=frameA gate=gateEpoch
//adaptivelint:bufpool type=encPool get=get put=put releaser=releaser
//adaptivelint:bufpool type=pool.Pool[tickWorkspace] get=Get put=Put
//adaptivelint:goroutines checked

type state struct {
	hits atomic.Int64
	//adaptivelint:chan owner=feed close=never
	queue chan int
	//adaptivelint:chan owner=none close=shutdown
	stop chan struct{}
}

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

func feed(s *state, v int) {
	s.queue <- v
}

func shutdown(s *state) {
	close(s.stop)
}

// sideDoor sends on queue from outside its declared owner (chanowner).
func sideDoor(s *state, v int) {
	s.queue <- v
}

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

// drain spins on queue without ever observing s.stop (goroleak).
func drain(s *state) {
	for range s.queue {
	}
}

func launch(s *state) {
	//adaptivelint:goroutine stop=s.stop
	go drain(s)
}

func main() {
	var s state
	s.queue = make(chan int, 1)
	s.stop = make(chan struct{})
	launch(&s)
	feed(&s, 1)
	sideDoor(&s, 2)
	_ = leakyEncode(&encPool{}, true)
	_ = leakyTick(3)
	shutdown(&s)

	copied := s.hits // atomicfields: atomic value copied
	_ = copied

	k := FrameKind(1)
	switch k { // wirekind: frameB unhandled
	case frameA:
	}

	_ = engine.Tick() // internalboundary: cmd/ reaching around the facade
}
