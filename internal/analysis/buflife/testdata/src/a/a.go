// Package a mirrors the send path's pool/refcount shapes and seeds
// buflife's caught violations next to the correctly-silent near-misses.
//
//adaptivelint:bufpool type=pool get=get put=put releaser=releaser
//adaptivelint:bufpool type=scratchPool get=get put=put
//adaptivelint:bufshared type=shared acquire=acquire
package a

type buf struct{ b []byte }

type pool struct{}

func (p *pool) get() *buf   { return &buf{} }
func (p *pool) put(eb *buf) {}
func (p *pool) releaser(eb *buf) func() {
	return func() { p.put(eb) }
}

type shared struct{}

func (s *shared) acquire() func() { return func() {} }

// balanced is the encodeDataFrame shape: put on the error path,
// releaser handed out on success. Silent.
func balanced(p *pool, fail bool) ([]byte, func(), bool) {
	eb := p.get()
	if fail {
		p.put(eb)
		return nil, nil, false
	}
	eb.b = append(eb.b, 1)
	return eb.b, p.releaser(eb), true
}

func leakOnError(p *pool, fail bool) int {
	eb := p.get()
	if fail {
		return -1 // want `pooled buffer eb acquired at line \d+ never reaches put/releaser on this path`
	}
	p.put(eb)
	return 0
}

func doubleRelease(p *pool) {
	eb := p.get()
	p.put(eb)
	p.put(eb) // want `pooled buffer released twice`
}

func useAfterRelease(p *pool) byte {
	eb := p.get()
	p.put(eb)
	return eb.b[0] // want `use of pooled buffer eb after its release`
}

// reacquire is the released-then-reacquired near-miss: rebinding from
// get re-arms the variable as a fresh obligation. Silent.
func reacquire(p *pool) {
	eb := p.get()
	p.put(eb)
	eb = p.get()
	eb.b = append(eb.b, 1)
	p.put(eb)
}

type holder struct{ keep *buf }

func escapeField(p *pool, h *holder) {
	eb := p.get()
	h.keep = eb // want `pooled buffer eb escapes into`
}

func escapeClosure(p *pool) func() byte {
	eb := p.get()
	return func() byte { return eb.b[0] } // want `pooled buffer eb captured by a function literal`
}

func loopLeak(p *pool, n int) {
	for i := 0; i < n; i++ {
		eb := p.get()
		if i == 0 {
			continue // want `pooled buffer eb acquired at line \d+ never reaches put/releaser on this path`
		}
		p.put(eb)
	}
}

// loopBalanced is the Tick shape: per-iteration get, put on the error
// path, releaser handed to the send on success. Silent.
func loopBalanced(p *pool, sink func([]byte, func()), n int) {
	for i := 0; i < n; i++ {
		eb := p.get()
		if i%2 == 0 {
			p.put(eb)
			continue
		}
		sink(eb.b, p.releaser(eb))
	}
}

// transfer hands the buffer to a call the analyzer cannot see; the
// obligation moves with it. Silent.
func transfer(p *pool, sink func(*buf)) {
	eb := p.get()
	sink(eb)
}

// appendTransfer is the sectionFor shape: appending parks the buffer in
// a slice released elsewhere. Silent.
func appendTransfer(p *pool) []*buf {
	var all []*buf
	eb := p.get()
	all = append(all, eb)
	return all
}

// deferPut releases on every path out; later reads are fine. Silent.
func deferPut(p *pool) byte {
	eb := p.get()
	defer p.put(eb)
	return eb.b[0]
}

// mixedPaths documents the deliberate blind spot: released on one arm
// only, the merged state is unknowable, so the walker stays silent
// rather than risk a false positive. Silent.
func mixedPaths(p *pool, cond bool) {
	eb := p.get()
	if cond {
		p.put(eb)
	}
}

func acquireSpent(s *shared) {
	rel := s.acquire()
	rel()
}

func acquireLeak(s *shared, cond bool) {
	rel := s.acquire()
	if cond {
		return // want `release callback rel acquired at line \d+ never reaches an invocation on this path`
	}
	rel()
}

func acquireDouble(s *shared, send func(func())) {
	send(s.acquire())
	rel := s.acquire()
	send(rel)
	rel() // want `use of release callback rel after its release`
}

// releaserBound binds the releaser before deciding a path for it; both
// the hand-off and the invocation spend it exactly once. Silent.
func releaserBound(p *pool, cond bool) func() {
	eb := p.get()
	rel := p.releaser(eb)
	if cond {
		return rel
	}
	rel()
	return nil
}

// scratchPool is declared without a releaser: put is its only release.
type scratchPool struct{}

func (p *scratchPool) get() *buf   { return &buf{} }
func (p *scratchPool) put(sc *buf) {}

// scratchDeferred puts the scratch back on every return. Silent.
func scratchDeferred(p *scratchPool, cond bool) int {
	sc := p.get()
	defer p.put(sc)
	if cond {
		return len(sc.b)
	}
	return 0
}

// scratchLeaksOnEarlyReturn forgets the put on one path.
func scratchLeaksOnEarlyReturn(p *scratchPool, cond bool) int {
	sc := p.get()
	if cond {
		return -1 // want `pooled buffer sc acquired at line \d+ never reaches put/releaser on this path`
	}
	p.put(sc)
	return 0
}
