package main

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"

	"adaptivecast"
)

// The checker owns the ledger of every broadcast a run attempts and
// verifies every delivery against it: exactly-once per (process, origin,
// seq), body integrity, and completion within the deadline. It is also
// the clock of the end-to-end latency: a broadcast completes at the
// moment the last process's Subscribe callback has run for it.

const (
	chunkSize = 4096
	maxChunks = 1024 // 4M broadcasts per run
	maxProcs  = 128  // width of the per-broadcast delivery bitmap
)

// bcastRec is the ledger entry of one broadcast. The generator writes
// the plain fields before it calls Broadcast; delivery callbacks on the
// nodes' dispatch goroutines touch only the atomics.
type bcastRec struct {
	origin   int32
	win      uint8 // window of the phase the broadcast was issued in
	diag     bool  // issued by a diagnostic stage: a late completion is reported, not failed
	errored  bool  // Broadcast returned an error
	start    int64 // ns since the checker's epoch: call time, or due time in an open loop
	deadline int64 // ns after start
	seq      atomic.Uint64
	done     atomic.Int64 // completion time; 0 while incomplete
	left     atomic.Int32 // processes still to deliver
	got      [maxProcs / 64]atomic.Uint64
}

type checker struct {
	n    int
	seed int64
	t0   time.Time
	rec  *recorder

	chunks [maxChunks]atomic.Pointer[[chunkSize]bcastRec]
	next   atomic.Uint64    // written by the generator only
	last   map[int32]uint64 // generator only: last receipt seq per origin
	open   atomic.Int64     // issued − completed
	doneCh chan uint64      // completions, for the closed loop's blocking wait

	duplicates  atomic.Int64 // a process delivered one (origin, seq) twice
	corrupt     atomic.Int64 // body or origin differs from what was broadcast
	unknown     atomic.Int64 // delivery of something never broadcast
	seqConflict atomic.Int64 // one broadcast seen under two sequence numbers, or seq reuse
}

func newChecker(n int, seed int64, rec *recorder) (*checker, error) {
	if n > maxProcs {
		return nil, fmt.Errorf("bench: %d processes exceed the checker's %d", n, maxProcs)
	}
	return &checker{
		n: n, seed: seed, t0: time.Now(), rec: rec,
		last: make(map[int32]uint64),
		// Sized so a completion signal is never dropped: one broadcast is
		// outstanding in a closed loop, and timed-out stragglers are rare.
		doneCh: make(chan uint64, 64),
	}, nil
}

func (c *checker) now() int64 { return int64(time.Since(c.t0)) }

func (c *checker) lookup(k uint64) *bcastRec {
	if k/chunkSize >= maxChunks {
		return nil
	}
	ch := c.chunks[k/chunkSize].Load()
	if ch == nil {
		return nil
	}
	return &ch[k%chunkSize]
}

// begin opens the ledger entry of the next broadcast and returns its index
// and body. start is the instant latency is measured from.
func (c *checker) begin(origin int, start int64, deadline time.Duration, win int, diag bool) (uint64, *bcastRec, []byte, error) {
	k := c.next.Load()
	if k/chunkSize >= maxChunks {
		return 0, nil, nil, fmt.Errorf("bench: more than %d broadcasts in one run", maxChunks*chunkSize)
	}
	if c.chunks[k/chunkSize].Load() == nil {
		c.chunks[k/chunkSize].Store(new([chunkSize]bcastRec))
	}
	c.next.Store(k + 1)
	r := c.lookup(k)
	r.origin, r.start, r.deadline = int32(origin), start, int64(deadline)
	r.win, r.diag = uint8(win), diag
	r.left.Store(int32(c.n))
	c.open.Add(1)
	body := make([]byte, bodySize) // the node keeps it until the local delivery ran
	bodyFor(body, c.seed, k)
	return k, r, body, nil
}

// issued closes the generator's side of a broadcast: the receipt must
// agree with what the processes saw, and an origin never reuses a seq.
func (c *checker) issued(r *bcastRec, receipt adaptivecast.Receipt, err error) {
	if err != nil {
		r.errored = true
	}
	if receipt.Seq == 0 {
		return
	}
	if !r.seq.CompareAndSwap(0, receipt.Seq) && r.seq.Load() != receipt.Seq {
		c.seqConflict.Add(1)
	}
	if receipt.Seq <= c.last[r.origin] {
		c.seqConflict.Add(1)
	}
	c.last[r.origin] = receipt.Seq
}

// deliver is the Subscribe callback of process `node`.
func (c *checker) deliver(node int, d adaptivecast.Delivery) {
	if len(d.Body) != bodySize {
		c.corrupt.Add(1)
		return
	}
	k := binary.LittleEndian.Uint64(d.Body)
	r := c.lookup(k)
	if r == nil || k >= c.next.Load() {
		c.unknown.Add(1)
		return
	}
	var want [bodySize]byte
	bodyFor(want[:], c.seed, k)
	if string(want[:]) != string(d.Body) || int32(d.Origin) != r.origin {
		c.corrupt.Add(1)
		return
	}
	if !r.seq.CompareAndSwap(0, d.Seq) && r.seq.Load() != d.Seq {
		c.seqConflict.Add(1)
		return
	}
	bit := uint64(1) << (node % 64)
	if r.got[node/64].Or(bit)&bit != 0 {
		c.duplicates.Add(1)
		return
	}
	t := c.now()
	if c.rec != nil && c.rec.recording.Load() && c.rec.wantData(int(d.Origin), d.Seq) {
		at := c.rec.now()
		c.rec.add(span{Name: spanDeliver, Node: node, Peer: int(d.From), ReqA: int(d.Origin), ReqB: d.Seq, Start: at, End: at})
	}
	if r.left.Add(-1) == 0 {
		r.done.Store(t)
		c.open.Add(-1)
		select {
		case c.doneCh <- k:
		default:
		}
	}
}

// wait blocks until broadcast k completes or patience runs out; it
// reports whether it completed. Stale completions of earlier broadcasts
// the caller stopped waiting for are skipped.
func (c *checker) wait(k uint64, r *bcastRec, timer *time.Timer, patience time.Duration) bool {
	if r.done.Load() != 0 {
		return true
	}
	timer.Reset(patience)
	defer timer.Stop()
	for {
		select {
		case got := <-c.doneCh:
			if got == k {
				return true
			}
		case <-timer.C:
			return r.done.Load() != 0
		}
	}
}

// systemDrops are the counters that tell a broadcast the system dropped
// from one the injected link loss ate.
type systemDrops struct {
	laneData, droppedDeliveries, overflows, decodeErrors int
}

func (d systemDrops) any() bool {
	return d.laneData+d.droppedDeliveries+d.overflows+d.decodeErrors > 0
}

// verdict is the checker's summary of one pass, or of several merged.
type verdict struct {
	attempted int // broadcasts of the measured phases (diagnostic stages excluded)
	diag      int // broadcasts of diagnostic stages
	failed    int // errored, late, or incomplete while the system dropped something
	lost      int // incomplete with every system-drop counter at zero: injected loss
	lostBound int // most losses the workload's reach target allows (set by judge)
	diagLate  int // late or incomplete broadcasts of diagnostic stages
	problems  []string
}

func (v verdict) ok() bool { return len(v.problems) == 0 }

// finish classifies every ledger entry once the pass has drained and
// reports the integrity violations seen on the way.
func (c *checker) finish(drops systemDrops) verdict {
	var v verdict
	for i := uint64(0); i < c.next.Load(); i++ {
		r := c.lookup(i)
		done := r.done.Load()
		late := done != 0 && done-r.start > r.deadline
		if r.diag {
			v.diag++
			if done == 0 || late {
				v.diagLate++
			}
		} else {
			v.attempted++
		}
		switch {
		case done == 0 && !r.errored && !drops.any():
			v.lost++
		case r.diag:
		case done == 0 || late || r.errored:
			v.failed++
		}
	}
	if n := c.duplicates.Load(); n > 0 {
		v.problems = append(v.problems, fmt.Sprintf("%d duplicate deliveries (exactly-once violated)", n))
	}
	if n := c.corrupt.Load(); n > 0 {
		v.problems = append(v.problems, fmt.Sprintf("%d deliveries with a corrupted body or origin", n))
	}
	if n := c.unknown.Load(); n > 0 {
		v.problems = append(v.problems, fmt.Sprintf("%d deliveries of broadcasts never issued", n))
	}
	if n := c.seqConflict.Load(); n > 0 {
		v.problems = append(v.problems, fmt.Sprintf("%d sequence-number conflicts", n))
	}
	return v
}

// merge adds another pass's counts and problems.
func (v verdict) merge(o verdict) verdict {
	v.attempted += o.attempted
	v.diag += o.diag
	v.failed += o.failed
	v.lost += o.lost
	v.diagLate += o.diagLate
	v.problems = append(v.problems, o.problems...)
	return v
}

// lossConfidence is the binomial quantile the loss gate sits at. The
// driver runs the benchmark some ninety times per check, so the gate must
// all but never fire on a system that just meets its target: one false
// alarm in a million runs, not the one in a thousand of a 99.9 % quantile.
const lossConfidence = 1 - 1e-6

// judge turns the counts into the run's verdict: any failed broadcast
// fails it, and so do more losses than Eq. 1 allows when every broadcast
// reaches everyone with probability reach (the workload's target, K where
// the link losses hold still). enforceLoss is false only in smoke runs,
// whose warm-up is too short for the estimates Eq. 1 is conditioned on.
func (v verdict) judge(reach float64, enforceLoss bool) verdict {
	v.lostBound = binomialBound(v.attempted+v.diag, 1-reach, lossConfidence)
	if v.failed > 0 {
		v.problems = append(v.problems, fmt.Sprintf("%d of %d broadcasts failed (error, deadline, or system drop)", v.failed, v.attempted))
	}
	if enforceLoss && v.lost > v.lostBound {
		v.problems = append(v.problems, fmt.Sprintf("%d broadcasts lost, Eq. 1 allows %d of %d at reach %g", v.lost, v.lostBound, v.attempted+v.diag, reach))
	}
	return v
}
