package main

import (
	"runtime"
	"sync"
	"time"

	"zerosum/internal/aggd"
	"zerosum/internal/obs"
)

// ingestSpec is one ingest workload: how to build its inputs and what to
// read and check around the shared open-loop / closed-loop run.
type ingestSpec struct {
	cfg rigConfig
	// prepare simulates the workload's templates and returns its job feed.
	prepare func(seed uint64) (jobFeed, error)
	// warm runs once the rig is up, before the schedule is built: a
	// deterministic warm-up or the dashboard's preload.
	warm func(r *rig) error
	// startAgents starts every scheduled stream's agent during set-up
	// (a long-running job), rather than at its first event (churn).
	startAgents bool
	// query, when set, returns the open-loop reader's i-th query, due
	// queryRate times a second; the reader's latency is then the
	// workload's headline latency instead of freshness.
	query     func(r *rig, seed uint64) func(i int) query
	queryRate float64
	// check runs after the books close, with the listeners still up.
	check func(r *rig, o *outcome)
	// layers adds workload-specific per-layer metrics in a traced run.
	layers func(r *rig, o *outcome)
}

// Run shape shared by the ingest workloads: an open-loop phase at the
// workload's fixed rate, a drain, then a closed-loop phase.
const (
	openShare      = 0.7 // of -seconds
	checkpointRate = 200 // freshness checkpoints per second of open loop
	readWorkers    = 8
)

// warmUpEvents is what each stream offers before measuring: one batch, so
// every agent, connection and series exists before the clock starts.
const warmUpEvents = defaultBatch

type ingestRun struct {
	*rig
	ids  []int32
	hash string
}

func runIngest(o opts, spec ingestSpec) outcome {
	out := outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
	durA := time.Duration(o.seconds * openShare * float64(time.Second))
	durB := time.Duration(o.seconds * (1 - openShare) * float64(time.Second))
	n := int(spec.cfg.rate * durA.Seconds())

	setup := func() (*ingestRun, error) {
		feed, err := spec.prepare(o.seed)
		if err != nil {
			return nil, err
		}
		r, err := newRig(spec.cfg, feed, o.rec)
		if err != nil {
			return nil, err
		}
		if spec.warm != nil {
			if err := spec.warm(r); err != nil {
				r.finish()
				r.close()
				return nil, err
			}
		}
		for _, s := range r.streams {
			s.schedPos = s.pos
		}
		ids, err := r.buildSchedule(n)
		if err != nil {
			r.finish()
			r.close()
			return nil, err
		}
		if spec.startAgents {
			for _, s := range r.streams {
				if s.agent == nil {
					if err := r.startAgent(s); err != nil {
						r.finish()
						r.close()
						return nil, err
					}
				}
			}
		}
		return &ingestRun{rig: r, ids: ids, hash: r.scheduleHash(ids)}, nil
	}
	teardown := func(ir *ingestRun) {
		ir.finish()
		ir.close()
	}
	ir, setupS, err := timedSetups(o, setup, teardown)
	if err != nil {
		out.errf("setup: %v", err)
		return out
	}
	r := ir.rig
	out.e2e["setup_s"] = setupS
	note("inputs sha256=%s (open loop: %d events over %d streams of %d jobs so far)", ir.hash, n, len(r.streams), len(r.jobs))
	note("open loop %.0f events/s for %v, then closed loop for %v; connection caps:%s (nproc %d)",
		spec.cfg.rate, durA, durB, capsLine(r.connCaps), nproc)
	for what, c := range r.connCaps {
		if c > nproc {
			out.errf("connection cap %s=%d exceeds nproc %d", what, c, nproc)
		}
	}

	var ingestSpans []time.Duration
	stopSpans := make(chan struct{})
	spansDone := make(chan []time.Duration, 1)
	fwdPeak := make(chan uint64, 1)
	if o.rec != nil {
		go pollIngestSpans(r.firstTier(), stopSpans, spansDone)
		go r.pollFwdPending(stopSpans, fwdPeak)
	}

	heap0 := liveHeap()
	// Phase A: the open loop at the fixed rate, with the reader (if any)
	// beside it.
	start := time.Now()
	r.admit.start(start)
	adm0 := r.root.Stats().IngestEvents
	cpu0, mal0 := cpuNS(), mallocs()
	var rd readResult
	var rdWG sync.WaitGroup
	if spec.query != nil {
		next := spec.query(r, o.seed)
		rdWG.Add(1)
		go func() {
			defer rdWG.Done()
			rd = openLoopRead(r.readClient, r.rootURL, spec.queryRate, int(spec.queryRate*durA.Seconds()), readWorkers, next)
		}()
	}
	cps := r.openLoop(ir.ids, start, time.Second/checkpointRate)
	rdWG.Wait()
	if !r.waitAdmitted(adm0+uint64(n), 5*time.Second) {
		out.errf("open-loop events not all admitted within 5 s of the phase end")
	}
	// The phase's cost includes its drain: every offered event's work is
	// done by now, so the reading does not move with how much was still in
	// flight when the schedule ended.
	cpuA, malA := cpuNS()-cpu0, mallocs()-mal0
	admA := r.root.Stats().IngestEvents - adm0
	timeline := r.admit.stop()
	lags := computeLags(cps, timeline, int64(time.Since(start)))
	// Growth over the fixed-rate phase: a fixed number of events, so the
	// reading does not move with the closed loop's throughput.
	out.e2e["heap_growth_mb"] = (float64(liveHeap()) - float64(heap0)) / 1e6

	// Phase B: the closed loop.
	peak, peakWall := r.closedLoop(durB)

	l := r.finish()
	if o.rec != nil {
		close(stopSpans)
		ingestSpans = <-spansDone
		r.fwdPeak = <-fwdPeak
	}
	for _, err := range l.check() {
		out.errs = append(out.errs, err)
	}
	if spec.check != nil {
		spec.check(r, &out)
	}
	r.mu.Lock()
	for _, f := range r.failures {
		out.errf("%s", f)
	}
	r.mu.Unlock()

	// End-to-end metrics.
	lagT := timing{name: "freshness lag", ms: lags.lagMS}
	lag50, lag95, lag99, lagErr := lagT.quantiles()
	if lags.misses > 0 {
		out.errf("freshness: %d of %d checkpoints never covered", lags.misses, len(cps))
	}
	late := append([]float64(nil), r.gen.late.ms...)
	lateP99, _ := percentile(late, 0.99)
	if lateP99 > float64(lagLimit.Milliseconds()) {
		out.errf("invalid run: generator lateness p99 %.1f ms exceeds the %v lag limit", lateP99, lagLimit)
	}
	if admA > 0 {
		out.e2e["cpu_ns_per_event"] = float64(cpuA) / float64(admA)
	}
	out.e2e["peak_events_per_cpu_s"] = peak
	out.attempted = int(l.published)
	out.failed = int(l.published - l.rootAdmitted)
	if spec.query == nil {
		if lagErr != nil {
			out.errs = append(out.errs, lagErr)
		}
		out.e2e["latency_p50_ms"], out.e2e["latency_p95_ms"] = lag50, lag95
		out.e2e["ok_frac"] = l.delivered()
	} else {
		q50, q95, q99, err := rd.lat.quantiles()
		if err != nil {
			out.errs = append(out.errs, err)
		}
		if rd.firstErr != nil {
			out.errf("reader: %d of %d queries failed; first: %v", rd.failed, rd.attempted, rd.firstErr)
		}
		out.e2e["latency_p50_ms"], out.e2e["latency_p95_ms"] = q50, q95
		out.e2e["ok_frac"] = float64(rd.attempted-rd.failed) / float64(rd.attempted)
		out.attempted += rd.attempted
		out.failed += rd.failed
		for class, t := range rd.byClass {
			p50, _ := percentile(append([]float64(nil), t.ms...), 0.5)
			note("  query class %-10s n=%4d p50=%.3f ms", class, len(t.ms), p50)
		}
		note("queries: %d, p50 %.2f ms p95 %.2f ms p99 %.2f ms, %d failed", rd.attempted, q50, q95, q99, rd.failed)
	}
	out.cost = out.e2e["cpu_ns_per_event"]
	note("freshness: %d checkpoints, lag p50 %.2f ms p95 %.2f ms p99 %.2f ms; generator late p99 %.3f ms over %d wakes",
		len(cps), lag50, lag95, lag99, lateP99, len(late))
	note("delivered %.6f of published events", l.delivered())
	note("books: published %d, root admitted %d, drops %d (ring %d, send %d, forward %d, rollup-skipped %d), retries %d",
		l.published, l.rootAdmitted, l.drops(), l.ringDrops, l.sendDrops, l.fwdDropped, l.rollupSkipped, l.retries)
	note("phase A: %d events admitted, %.3f s CPU; phase B: %.0f events per CPU-second, %.0f events/s", admA, float64(cpuA)/1e9, peak, peakWall)

	if o.rec != nil {
		ingestLayers(r, &out, l, ingestSpans, admA, malA)
		if spec.layers != nil {
			spec.layers(r, &out)
		}
		if err := corePass(out.layers); err != nil {
			out.errs = append(out.errs, err)
		}
	}
	r.close()
	runtime.KeepAlive(ir) // the schedule was live at the first heap reading too
	return out
}

// pollIngestSpans collects the servers' own StageIngest spans (their span
// rings are small, so they are read every few milliseconds) until stop.
func pollIngestSpans(srvs []*aggd.Server, stop <-chan struct{}, done chan<- []time.Duration) {
	type key struct{ start, dur int64 }
	seen := map[key]bool{}
	var out []time.Duration
	var buf []obs.Span
	t := time.NewTicker(5 * time.Millisecond)
	defer t.Stop()
	for {
		for _, s := range srvs {
			buf = s.Obs().Spans(buf[:0])
			for _, sp := range buf {
				k := key{sp.StartNS, sp.DurNS}
				if sp.Stage == obs.StageIngest && !seen[k] {
					seen[k] = true
					out = append(out, time.Duration(sp.DurNS))
				}
			}
		}
		select {
		case <-stop:
			done <- out
			return
		case <-t.C:
		}
	}
}
