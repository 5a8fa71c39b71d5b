package a

import "gpool"

// The directives name an imported generic pool, pinned to one
// instantiation each; gpool.Pool[spare] is declared by no line and is
// not tracked.
//
//adaptivelint:bufpool type=gpool.Pool[frame] get=Get put=Put releaser=Releaser
//adaptivelint:bufpool type=gpool.Pool[workspace] get=Get put=Put

type frame struct{ b []byte }

type workspace struct{ outs []int }

type spare struct{}

// genericBalanced is the encodeDataFrame shape over the generic pool.
// Silent.
func genericBalanced(p *gpool.Pool[frame], fail bool) ([]byte, func()) {
	eb := p.Get()
	if fail {
		p.Put(eb)
		return nil, nil
	}
	eb.b = append(eb.b, 1)
	return eb.b, p.Releaser(eb)
}

// genericDeferred is the Tick shape: the workspace goes back on every
// path through a deferred Put. Silent.
func genericDeferred(p *gpool.Pool[workspace], cond bool) int {
	ws := p.Get()
	defer p.Put(ws)
	if cond {
		return 0
	}
	ws.outs = append(ws.outs, 1)
	return len(ws.outs)
}

func genericLeak(p *gpool.Pool[workspace], cond bool) int {
	ws := p.Get()
	if cond {
		return -1 // want `pooled buffer ws acquired at line \d+ never reaches put/releaser on this path`
	}
	p.Put(ws)
	return 0
}

func genericDoubleRelease(p *gpool.Pool[frame]) {
	eb := p.Get()
	release := p.Releaser(eb)
	p.Put(eb) // want `pooled buffer released twice`
	release()
}

// undeclaredInstance gets from an instantiation no directive names.
// Silent.
func undeclaredInstance(p *gpool.Pool[spare]) *spare {
	x := p.Get()
	_ = x
	return nil
}
