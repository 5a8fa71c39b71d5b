package main

import (
	"fmt"
	"runtime"
	"time"
)

// A workload's measured part is a sequence of phases over one cluster.
// Three shapes exist:
//
//   - periods: N heartbeat periods, each Tick on every node (timed), then
//     a fixed number of closed-loop broadcasts, then a drain. Counted in
//     periods, not seconds, so the estimators walk the same trajectory on
//     every machine and commit.
//   - open loop: broadcasts issued on a fixed schedule whatever the
//     cluster does, each timed from the instant it was due.
//   - closed loop: one outstanding broadcast, the next issued when the
//     last process has delivered the previous one.
//
// All three run on the one generator goroutine (the caller's), and all
// waits block: on the checker's completion channel, or in time.Sleep.

type phaseKind int

const (
	phasePeriods phaseKind = iota
	phaseOpenHalf
	phaseOpen
	phaseOpenDouble
	phaseClosed
	numPhases
)

func (k phaseKind) String() string {
	return [...]string{"periods", "open-half", "open", "open-double", "closed"}[k]
}

// winAcc is what the generator accumulates per window of a phase, over
// the stretches in which it was broadcasting.
type winAcc struct {
	wallNs    int64
	cpuNs     int64
	attempted int
}

type phaseResult struct {
	kind          phaseKind
	k0, k1        uint64 // ledger range
	win           [windows]winAcc
	wallNs        int64
	before, after counters
	mallocs       uint64
	gcPauseNs     uint64

	// periods phase
	periods                          int
	tickNs                           []float64 // one per (period, node), in order
	tickWallNs, bcastWallNs, drainNs int64
	lossMAE                          float64 // estimate quality at the end of the phase

	// open loop
	rate    float64
	lateUs  []float64
	backlog int64 // broadcasts still open when the last one was issued
	rebased int   // times the schedule was moved past a stall of the generator itself
}

// runner drives the phases of one workload pass.
type runner struct {
	spec  *workloadSpec
	c     *cluster
	ck    *checker
	timer *time.Timer
	next  int // origin rotation
	// patience is the spec's, stretched in smoke runs.
	patience time.Duration

	callNs int64 // time inside Node.Broadcast
	calls  int64
}

func newRunner(spec *workloadSpec, c *cluster, ck *checker) *runner {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &runner{spec: spec, c: c, ck: ck, timer: t, patience: spec.patience}
}

func (r *runner) origin() int {
	o := r.spec.origins[r.next%len(r.spec.origins)]
	r.next++
	return r.c.in.perm[o]
}

// broadcast issues one broadcast from the next origin. start < 0 means
// "now" (closed loop); otherwise it is the due time of an open loop.
func (r *runner) broadcast(start int64, win int, diag bool) (uint64, *bcastRec, error) {
	origin := r.origin()
	if start < 0 {
		start = r.ck.now()
	}
	k, rec, body, err := r.ck.begin(origin, start, failAfter, win, diag)
	if err != nil {
		return 0, nil, err
	}
	t0 := time.Now()
	receipt, berr := r.c.nodes[origin].Broadcast(body)
	dt := time.Since(t0)
	r.callNs += int64(dt)
	r.calls++
	r.ck.issued(rec, receipt, berr)
	if tr := r.c.rec; tr != nil {
		end := tr.now()
		tr.call(spanBroadcast, origin, origin, receipt.Seq, end-int64(dt), end)
	}
	return k, rec, nil
}

func (r *runner) begin(kind phaseKind) (*phaseResult, time.Time) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res := &phaseResult{kind: kind, k0: r.ck.next.Load(), before: r.c.counters(),
		mallocs: ms.Mallocs, gcPauseNs: ms.PauseTotalNs}
	return res, time.Now()
}

func (r *runner) end(res *phaseResult, start time.Time) error {
	if err := r.c.drain(); err != nil {
		return fmt.Errorf("%s phase: %w", res.kind, err)
	}
	res.wallNs = int64(time.Since(start))
	res.k1 = r.ck.next.Load()
	res.after = r.c.counters()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.mallocs = ms.Mallocs - res.mallocs
	res.gcPauseNs = ms.PauseTotalNs - res.gcPauseNs
	return nil
}

// closedLoop keeps one broadcast outstanding for dur.
func (r *runner) closedLoop(dur time.Duration) (*phaseResult, error) {
	res, start := r.begin(phaseClosed)
	for w := 0; w < windows; w++ {
		edge := start.Add(dur * time.Duration(w+1) / windows)
		acc := &res.win[w]
		t0, cpu0 := time.Now(), cpuTime()
		for time.Now().Before(edge) {
			k, rec, err := r.broadcast(-1, w, false)
			if err != nil {
				return nil, err
			}
			acc.attempted++
			r.ck.wait(k, rec, r.timer, r.patience)
		}
		acc.wallNs, acc.cpuNs = int64(time.Since(t0)), int64(cpuTime()-cpu0)
	}
	return res, r.end(res, start)
}

// maxGeneratorLag is how far behind its schedule the open loop may find
// itself and still catch up by issuing the overdue broadcasts at once.
// Lateness up to here is the system's doing (on one P the generator waits
// its turn behind the nodes' goroutines) and is charged to it: latency runs
// from the due time. Further behind, the generator itself was stopped — the
// VM froze; 0.5 s was seen — and catching up would hand the origins a
// thousand broadcasts in one burst, which their lanes rightly shed at depth
// 256: the schedule moves past the stall instead, and the run says so.
const maxGeneratorLag = 100 * time.Millisecond

// openLoop issues rate broadcasts per second for dur, each timed from
// its due time, then waits for the stragglers.
func (r *runner) openLoop(kind phaseKind, rate float64, dur time.Duration) (*phaseResult, error) {
	res, start := r.begin(kind)
	res.rate = rate
	total := int(rate * dur.Seconds())
	if total < windows {
		total = windows
	}
	interval := float64(time.Second) / rate
	diag := kind != phaseOpen
	origin := r.ck.now()
	w, t0, cpu0 := 0, time.Now(), cpuTime()
	for i := 0; i < total; i++ {
		if nw := i * windows / total; nw != w {
			res.win[w].wallNs, res.win[w].cpuNs = int64(time.Since(t0)), int64(cpuTime()-cpu0)
			w, t0, cpu0 = nw, time.Now(), cpuTime()
		}
		due := origin + int64(float64(i)*interval)
		now := r.ck.now()
		if now < due {
			if err := r.c.pacer.sleep(time.Duration(due - now)); err != nil {
				return nil, err
			}
			now = r.ck.now()
		}
		if lag := now - due; lag > int64(maxGeneratorLag) {
			origin, due = origin+lag, now
			res.rebased++
		}
		res.lateUs = append(res.lateUs, us(now-due))
		if _, _, err := r.broadcast(due, w, diag); err != nil {
			return nil, err
		}
		res.win[w].attempted++
	}
	res.win[w].wallNs, res.win[w].cpuNs = int64(time.Since(t0)), int64(cpuTime()-cpu0)
	res.backlog = r.ck.open.Load()
	// Stragglers: whatever is still open either completes while patience
	// lasts or is classified by the checker at the end of the run.
	for limit := time.Now().Add(r.patience); r.ck.open.Load() > 0 && time.Now().Before(limit); {
		time.Sleep(time.Millisecond)
	}
	return res, r.end(res, start)
}

// periodsPhase runs n heartbeat periods.
func (r *runner) periodsPhase(n int) (*phaseResult, error) {
	res, start := r.begin(phasePeriods)
	res.periods = n
	res.tickNs = make([]float64, 0, n*len(r.c.nodes))
	spec := r.spec
	for p := 0; p < n; p++ {
		w := p * windows / n
		if spec.flapEvery > 0 && p > 0 && p%spec.flapEvery == 0 {
			if err := r.c.setFlap(!r.c.bad); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		res.tickNs = r.c.tickAll(res.tickNs)
		res.tickWallNs += int64(time.Since(t0))
		if spec.drainBeforeBcasts {
			t0 = time.Now()
			if err := r.c.drain(); err != nil {
				return nil, err
			}
			res.drainNs += int64(time.Since(t0))
		}
		if spec.bcastsPerPeriod > 0 {
			acc := &res.win[w]
			t0, cpu0 := time.Now(), cpuTime()
			for j := 0; j < spec.bcastsPerPeriod; j++ {
				k, rec, err := r.broadcast(-1, w, false)
				if err != nil {
					return nil, err
				}
				acc.attempted++
				r.ck.wait(k, rec, r.timer, r.patience)
			}
			dt := int64(time.Since(t0))
			acc.wallNs += dt
			acc.cpuNs += int64(cpuTime() - cpu0)
			res.bcastWallNs += dt
		}
		t0 = time.Now()
		if err := r.c.drain(); err != nil {
			return nil, err
		}
		res.drainNs += int64(time.Since(t0))
	}
	res.lossMAE = r.c.lossMAE()
	if r.c.bad {
		if err := r.c.setFlap(false); err != nil {
			return nil, err
		}
	}
	return res, r.end(res, start)
}
