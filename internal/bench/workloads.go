package main

import (
	"fmt"
	"runtime"
	"time"
	"unsafe"

	"adaptivecast"
)

// options are the knobs of one workload run.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	out     string // span file of the traced pass
	// smoke is for the tier-1 smoke test, which runs every workload in a
	// few seconds beside other packages' tests: eight warm-up periods, one
	// pass, patience stretched twentyfold, and the Eq. 1 loss bound
	// reported but not enforced (the estimates it rests on need the full
	// warm-up).
	smoke bool
}

// metric is one reported value.
type metric struct {
	def     metricDef
	value   float64
	samples int     // observations behind it, all passes together (0 for a plain count or ratio)
	spread  float64 // (max − min) / median across the passes
}

// result is everything one run of one workload reports.
type result struct {
	spec     *workloadSpec
	opt      options
	metrics  []metric // end-to-end metrics untraced, per-layer metrics traced
	timings  []metric // untraced: the timings list, printed but not in the JSON
	verdict  verdict
	problems []string // checker problems plus failed gates
	path     pathBreakdown
	period   periodBreakdown
	spanFile string
	spans    int
	dropped  int
	rebased  int // open-loop schedules moved past a stall of the generator, all passes
}

func (r *result) correct() bool { return len(r.problems) == 0 }

// periodBreakdown tiles the mean period of the period phase.
type periodBreakdown struct {
	periods                          int
	wallUs, tickUs, bcastUs, drainUs float64
}

// pass is one cluster's life: set-up, the measured phases, the verdict.
type pass struct {
	spec     *workloadSpec
	c        *cluster
	ck       *checker
	run      *runner
	setupS   float64
	setupCPU float64 // CPU seconds of the set-up, waits of the paced warm-up excluded
	phases   [numPhases]*phaseResult
	heapMB   float64
	verdict  verdict
	delta    counters          // protocol counters over the measured part
	taps     [numKinds]tapSums // traced counters over the measured part
	shadow   shadowSums
	gcMs     float64
}

// generate makes the workload's inputs from the seed.
func (s *workloadSpec) generate(seed int64) (*inputs, error) {
	if s.kind == overTCP {
		return genRing(seed, s.n)
	}
	return genFabric(seed, s.n, s.conn, s.flaps)
}

// setUp builds the cluster and runs the warm-up periods.
func setUp(spec *workloadSpec, opt options, rec *recorder) (*pass, error) {
	in, err := spec.generate(opt.seed)
	if err != nil {
		return nil, err
	}
	start, cpu0 := time.Now(), cpuTime()
	ck, err := newChecker(spec.n, opt.seed, rec)
	if err != nil {
		return nil, err
	}
	c, err := newCluster(in, spec.kind, ck, rec)
	if err != nil {
		return nil, err
	}
	warm, every := spec.warmup, spec.warmupEvery
	if opt.smoke {
		warm, every = min(warm, 8), 0
	}
	if err := c.warmup(warm, every); err != nil {
		c.close()
		return nil, err
	}
	run := newRunner(spec, c, ck)
	if opt.smoke {
		run.patience *= 20
	}
	return &pass{spec: spec, c: c, ck: ck, run: run,
		setupS: time.Since(start).Seconds(), setupCPU: (cpuTime() - cpu0).Seconds()}, nil
}

// measure runs the phases for about `seconds` and closes the cluster.
func (p *pass) measure(seconds float64) (err error) {
	defer p.c.close()
	spec, rec := p.spec, p.c.rec
	dur := func(frac float64) time.Duration { return time.Duration(frac * seconds * float64(time.Second)) }
	var tap0 [numKinds]tapSums
	var sh0 shadowSums
	if rec != nil {
		tap0, sh0 = p.c.tapTotals(), p.c.shadow.snapshotSums()
		rec.recording.Store(true)
	}
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	before := p.c.counters()

	periods := max(windows, int(spec.periodsPerSec*seconds+0.5))
	if p.phases[phasePeriods], err = p.run.periodsPhase(periods); err != nil {
		return err
	}
	for i, kind := range []phaseKind{phaseOpenHalf, phaseOpen, phaseOpenDouble} {
		rate := spec.openRate * []float64{0.5, 1, 2}[i]
		if p.phases[kind], err = p.run.openLoop(kind, rate, dur(spec.openFrac[i])); err != nil {
			return err
		}
	}
	if spec.closedFrac > 0 {
		if p.phases[phaseClosed], err = p.run.closedLoop(dur(spec.closedFrac)); err != nil {
			return err
		}
	}

	if rec != nil {
		rec.recording.Store(false)
		t1 := p.c.tapTotals()
		for k := range p.taps {
			p.taps[k] = t1[k].sub(tap0[k])
		}
		p.shadow = p.c.shadow.snapshotSums().sub(sh0)
	}
	final := p.c.counters()
	p.delta = final.sub(before)
	p.verdict = p.ck.finish(final.drops())
	// View memory: what is live once the cluster is quiet. The ledger is
	// the benchmark's own and is gone by the time a user would look.
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	p.heapMB = float64(ms.HeapAlloc)/1e6 - p.ck.ledgerMB()
	p.gcMs = float64(ms.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	return nil
}

// ledgerMB is the heap the checker's ledger holds.
func (c *checker) ledgerMB() float64 {
	chunks := (c.next.Load() + chunkSize - 1) / chunkSize
	return float64(chunks) * chunkSize * float64(unsafe.Sizeof(bcastRec{})) / 1e6
}

// latencies returns the on-time completion latencies (µs) of a phase's
// broadcasts, per window and all together in issue order.
func (p *pass) latencies(ph *phaseResult) (perWin [windows][]float64, all []float64) {
	for k := ph.k0; k < ph.k1; k++ {
		r := p.ck.lookup(k)
		done := r.done.Load()
		if done == 0 || done-r.start > r.deadline {
			continue
		}
		l := us(done - r.start)
		perWin[r.win] = append(perWin[r.win], l)
		all = append(all, l)
	}
	return perWin, all
}

// minWindowSamples is the fewest samples a window must hold for its own
// quantiles to mean something (ten beyond the p95).
const minWindowSamples = 200

// windowLatency aggregates the per-window q-quantile of a phase. When
// the windows are too thin for that (the probe phases), it pools them.
func windowLatency(perWin [windows][]float64, q float64) agg {
	vals := make([]float64, 0, windows)
	var pooled []float64
	thin := false
	for _, w := range perWin {
		if len(w) > 0 {
			vals = append(vals, quantile(sortedCopy(w), q))
			pooled = append(pooled, w...)
		}
		thin = thin || len(w) < minWindowSamples
	}
	if thin {
		return agg{value: quantile(sortedCopy(pooled), q), samples: len(pooled)}
	}
	return aggregate(vals, len(pooled))
}

func (ph *phaseResult) attempted() int {
	n := 0
	for _, w := range ph.win {
		n += w.attempted
	}
	return n
}

// endToEndMetrics computes the end-to-end metrics of an untraced pass, in
// the order of endToEnd.
func (p *pass) endToEndMetrics() []metric {
	spec := p.spec
	lat, rate, per := p.phases[spec.latencyFrom], p.phases[spec.rateFrom], p.phases[phasePeriods]
	return inOrder(endToEnd, map[string]metric{
		"setup_s":                  {value: p.setupS},
		"data_msgs_per_bcast":      {value: ratio(lat.after.dataSent-lat.before.dataSent, lat.attempted())},
		"allocs_per_bcast":         {value: ratio(int(rate.mallocs), rate.attempted())},
		"hb_bytes_per_node_period": {value: ratio(per.after.hbBytes-per.before.hbBytes, per.periods*spec.n)},
		"heap_mb":                  {value: p.heapMB},
	})
}

// timingMetrics computes the timings of an untraced pass, in the order of
// timings.
func (p *pass) timingMetrics() []metric {
	spec := p.spec
	perWin, all := p.latencies(p.phases[spec.latencyFrom])
	p50 := windowLatency(perWin, 0.50)

	rate := p.phases[spec.rateFrom]
	ratePerWin, _ := p.latencies(rate)
	rates := make([]float64, 0, windows)
	for w, acc := range rate.win {
		if acc.wallNs > 0 {
			rates = append(rates, float64(len(ratePerWin[w]))/(float64(acc.wallNs)/1e9))
		}
	}
	cpu := p.phases[spec.cpuFrom]
	cpus := make([]float64, 0, windows)
	for _, acc := range cpu.win {
		if acc.attempted > 0 {
			cpus = append(cpus, float64(acc.cpuNs)/1e3/float64(acc.attempted))
		}
	}
	tick := windowQuantile(p.phases[phasePeriods].tickNs, 0.5)
	return inOrder(timings, map[string]metric{
		"cluster.delivery_p50_us":  fromAgg(p50),
		"cluster.bcast_per_s":      fromAgg(aggregate(rates, len(all))),
		"cluster.cpu_us_per_bcast": fromAgg(aggregate(cpus, cpu.attempted())),
		"node.tick_us_p50":         {value: tick.value / 1e3, samples: tick.samples},
	})
}

// inOrder lays named values out in the order of defs. A missing name is
// a bug in this file, caught by the smoke test.
func inOrder(defs []metricDef, vals map[string]metric) []metric {
	out := make([]metric, len(defs))
	for i, d := range defs {
		m, ok := vals[d.name]
		if !ok || len(vals) != len(defs) {
			panic("bench: metric list and values disagree at " + d.name)
		}
		m.def = d
		out[i] = m
	}
	return out
}

func fromAgg(a agg) metric { return metric{value: a.value, samples: a.samples, spread: a.spread} }

// runWorkload runs one workload once. Untraced it reports the end-to-end
// metrics; traced it runs an untraced pass and a traced pass of half the
// length each and reports the per-layer metrics of the traced one.
func runWorkload(spec *workloadSpec, opt options) (*result, error) {
	res := &result{spec: spec, opt: opt}
	if !opt.trace {
		return runPasses(res)
	}

	base, err := setUp(spec, opt, nil)
	if err != nil {
		return nil, err
	}
	if err := base.measure(opt.seconds / 2); err != nil {
		return nil, err
	}
	rec := newRecorder(spec.sampleData, spec.sampleHB)
	p, err := setUp(spec, opt, rec)
	if err != nil {
		return nil, err
	}
	if err := p.measure(opt.seconds / 2); err != nil {
		return nil, err
	}
	rec.link()
	st := rec.analyze()
	off, err := runOfflineReplays(rec.dataFrames, p.c.shadow)
	if err != nil {
		return nil, err
	}
	res.metrics = p.perLayerMetrics(base, st, off)
	res.verdict = base.verdict.merge(p.verdict).judge(spec.reach, !opt.smoke)
	res.problems = res.verdict.problems
	if !opt.smoke { // the gates presuppose the full warm-up
		res.problems = append(res.problems, p.gates()...)
	}
	res.path, res.period = st.path, p.periodBreakdown()
	res.rebased = base.rebased() + p.rebased()
	res.spans, res.dropped = len(rec.spans), rec.dropped
	if opt.out != "" {
		if err := rec.write(opt.out); err != nil {
			return nil, err
		}
		res.spanFile = opt.out
	}
	return res, nil
}

// runPasses is the untraced run: spec.passes independent passes — each
// its own cluster, set up from scratch and measured for an equal share of
// -seconds — and, per metric, the median over the passes. setup_s is thus
// the median of the passes' set-ups.
func runPasses(res *result) (*result, error) {
	spec, opt := res.spec, res.opt
	n := spec.passes
	if opt.smoke {
		n = 1
	}
	bounded, timed := make([][]metric, 0, n), make([][]metric, 0, n)
	for i := 0; i < n; i++ {
		p, err := setUp(spec, opt, nil)
		if err != nil {
			return nil, err
		}
		if err := p.measure(opt.seconds / float64(n)); err != nil {
			return nil, err
		}
		bounded, timed = append(bounded, p.endToEndMetrics()), append(timed, p.timingMetrics())
		res.verdict = res.verdict.merge(p.verdict)
		res.period = p.periodBreakdown()
		res.rebased += p.rebased()
	}
	res.verdict = res.verdict.judge(spec.reach, !opt.smoke)
	res.problems = res.verdict.problems
	res.metrics, res.timings = overPasses(bounded), overPasses(timed)
	return res, nil
}

// overPasses reduces the passes' metric lists to one: per metric the
// median over the passes, their spread, and the samples of all of them.
func overPasses(perPass [][]metric) []metric {
	out := make([]metric, len(perPass[0]))
	for i := range out {
		vals := make([]float64, len(perPass))
		m := metric{def: perPass[0][i].def}
		for j, pm := range perPass {
			vals[j] = pm[i].value
			m.samples += pm[i].samples
		}
		a := aggregate(vals, 0)
		m.value, m.spread = a.value, a.spread
		out[i] = m
	}
	return out
}

// rebased counts the times the pass's open loops moved their schedule past
// a stall of the generator.
func (p *pass) rebased() int {
	n := 0
	for _, ph := range p.phases {
		if ph != nil {
			n += ph.rebased
		}
	}
	return n
}

func (p *pass) periodBreakdown() periodBreakdown {
	per := p.phases[phasePeriods]
	n := float64(per.periods)
	b := periodBreakdown{
		periods: per.periods,
		wallUs:  float64(per.wallNs) / 1e3 / n,
		tickUs:  float64(per.tickWallNs) / 1e3 / n,
		bcastUs: float64(per.bcastWallNs) / 1e3 / n,
		drainUs: float64(per.drainNs) / 1e3 / n,
	}
	return b
}

// gates are the traced run's quality checks: a heartbeat saving must not
// cost estimate quality, and the plan must promise at least K.
func (p *pass) gates() []string {
	var out []string
	if mae := p.phases[phasePeriods].lossMAE; mae >= p.spec.maxLossMAE {
		out = append(out, fmt.Sprintf("knowledge.est_loss_mae %.4f ≥ %.2f", mae, p.spec.maxLossMAE))
	}
	// Greedy stops at the first allocation whose reach is ≥ K; allow for
	// the rounding of recomputing that product.
	if reach := p.c.shadow.predictedReach; reach < adaptivecast.DefaultK-1e-9 {
		out = append(out, fmt.Sprintf("optimize.predicted_reach %.6f < K=%g", reach, adaptivecast.DefaultK))
	}
	return out
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// missShare is misses ÷ lookups.
func missShare(misses, hits int) float64 { return ratio(misses, misses+hits) }

// openLoopLimitUs is the p95 latency limit an open-loop stage must meet
// to count as sustained.
const openLoopLimitUs = 5000

// perLayerMetrics computes the traced pass's metrics. base is the
// untraced pass of the same run.
func (p *pass) perLayerMetrics(base *pass, st spanStats, off offlineReplays) []metric {
	spec, sh, view, cnt := p.spec, p.shadow, p.c.shadow, p.delta
	per := p.phases[phasePeriods]
	d, hb := p.taps[kindData], p.taps[kindHB]
	sends := int(d.sendCalls + hb.sendCalls)
	usPer := func(ns, calls int64) float64 { return float64(ns) / 1e3 / float64(max(1, calls)) }

	latWin, latAll := p.latencies(p.phases[spec.latencyFrom])
	baseWin, _ := base.latencies(base.phases[spec.latencyFrom])
	overhead := 0.0
	if b := windowLatency(baseWin, 0.5).value; b > 0 {
		overhead = windowLatency(latWin, 0.5).value/b - 1
	}

	bcasts := 0
	for _, ph := range p.phases {
		if ph != nil {
			bcasts += ph.attempted()
		}
	}

	// Open-loop ladder: a stage is sustained when its p95 meets the limit
	// and no more broadcasts were open at its end than the limit explains
	// (rate × limit in flight; twice that is a backlog).
	var ladderP50 [numPhases]float64
	maxOK := 0.0
	for _, k := range []phaseKind{phaseOpenHalf, phaseOpen, phaseOpenDouble} {
		ph := p.phases[k]
		win, _ := p.latencies(ph)
		ladderP50[k] = windowLatency(win, 0.5).value
		if windowLatency(win, 0.95).value <= openLoopLimitUs && float64(ph.backlog) <= 2*ph.rate*openLoopLimitUs/1e6+1 {
			maxOK = ph.rate
		}
	}

	// The timings are those of the untraced half: the tap's clock reads
	// would otherwise be in them.
	timed := base.timingMetrics()
	v := func(x float64) metric { return metric{value: x} }
	vals := make(map[string]metric, len(perLayer))
	for _, m := range timed {
		vals[m.def.name] = v(m.value)
	}
	for name, m := range map[string]metric{
		"bayes.observe_ns":                  v(off.observe.per(time.Nanosecond)),
		"knowledge.begin_period_us":         v(sh.begin.per(time.Microsecond)),
		"knowledge.delta_since_us":          v(sh.delta.per(time.Microsecond)),
		"knowledge.snapshot_us":             v(sh.snapshot.per(time.Microsecond)),
		"knowledge.merge_us":                v(sh.merge.per(time.Microsecond)),
		"knowledge.estimated_config_us":     v(sh.estConfig.per(time.Microsecond)),
		"knowledge.delta_record_ratio":      v(ratio(int(sh.recsShipped), int(sh.recsInView))),
		"knowledge.view_bytes":              v(float64(view.viewBytes)),
		"knowledge.est_loss_mae":            v(per.lossMAE),
		"mrt.build_us":                      v(sh.build.per(time.Microsecond)),
		"mrt.from_parents_us":               v(off.fromParents.per(time.Microsecond)),
		"mrt.depth_max":                     v(float64(view.depthMax)),
		"optimize.greedy_us":                v(sh.greedy.per(time.Microsecond)),
		"optimize.alloc_total":              v(float64(view.allocTotal)),
		"optimize.predicted_reach":          v(view.predictedReach),
		"wire.data_encode_ns":               v(off.dataEncode.per(time.Nanosecond)),
		"wire.data_decode_ns":               v(off.dataDecode.per(time.Nanosecond)),
		"wire.splice_ns":                    v(off.splice.per(time.Nanosecond)),
		"wire.data_frame_bytes":             v(off.dataFrameBytes),
		"wire.hb_encode_us":                 v(sh.hbEncode.per(time.Microsecond)),
		"wire.hb_decode_us":                 v(sh.hbDecode.per(time.Microsecond)),
		"wire.hb_frame_bytes_p50":           v(quantile(sortedCopy(view.hbFrameBytes), 0.5)),
		"lanes.enqueue_ns":                  v(off.enqueue.per(time.Nanosecond)),
		"lanes.residence_us_p50":            v(quantile(st.dataResidenceUs, 0.50)),
		"lanes.residence_us_p95":            v(quantile(st.dataResidenceUs, 0.95)),
		"lanes.control_residence_us_p95":    v(quantile(st.ctlResidenceUs, 0.95)),
		"lanes.frames_per_flush":            v(ratio(int(d.sendFrames), int(d.sendCalls))),
		"lanes.shed_data":                   v(float64(cnt.laneData)),
		"transport.send_us":                 v(usPer(d.sendNs+hb.sendNs, int64(sends))),
		"transport.oneway_us":               v(quantile(st.onewayUs, 0.5)),
		"transport.copies_per_send":         v(ratio(int(d.sendCopies+hb.sendCopies), sends)),
		"transport.bytes_per_bcast":         v(ratio(int(d.sendBytes), bcasts)),
		"transport.overflows":               v(float64(cnt.overflows)),
		"dedup.mark_ns":                     v(off.dedupMark.per(time.Nanosecond)),
		"node.broadcast_call_us":            v(usPer(p.run.callNs, p.run.calls)),
		"node.handle_data_us":               v(usPer(d.handleNs, d.handleCalls)),
		"node.handle_hb_us":                 v(usPer(hb.handleNs, hb.handleCalls)),
		"node.tick_us_p95":                  v(quantile(sortedCopy(per.tickNs), 0.95) / 1e3),
		"node.plan_miss_ratio":              v(missShare(cnt.planMisses, cnt.planHits)),
		"node.fwd_cache_miss_ratio":         v(missShare(cnt.fwdMisses, cnt.fwdHits)),
		"node.dup_ratio":                    v(ratio(int(d.handleCalls), cnt.dataReceived)),
		"node.encode_pool_miss_ratio":       v(missShare(cnt.poolMisses, cnt.poolHits)),
		"cluster.setup_cpu_s":               v(base.setupCPU),
		"cluster.gc_pause_ms":               v(p.gcMs),
		"cluster.delivery_p95_us":           v(windowLatency(latWin, 0.95).value),
		"cluster.delivery_p99_us":           v(quantile(sortedCopy(latAll), 0.99)),
		"cluster.hb_frames_per_node_period": v(ratio(per.after.hbSent-per.before.hbSent, per.periods*spec.n)),
		"cluster.trace_overhead":            v(overhead),
		"gen.late_p95_us":                   v(quantile(sortedCopy(p.phases[phaseOpen].lateUs), 0.95)),
		"gen.delivery_p50_us.half":          v(ladderP50[phaseOpenHalf]),
		"gen.delivery_p50_us.double":        v(ladderP50[phaseOpenDouble]),
		"gen.max_rate_ok":                   v(maxOK),
	} {
		vals[name] = m
	}
	return inOrder(perLayer, vals)
}
