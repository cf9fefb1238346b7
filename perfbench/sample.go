package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"

	"zerosum"
	"zerosum/internal/export"
	"zerosum/internal/obs"
	"zerosum/internal/sim"
)

// sample: the paper's §4.1 overhead path (core on the live /proc). The
// benchmark process hosts a seeded population of OS threads, mostly parked,
// a few woken for short bursts; MonitorSelf ticks on its own locked OS
// thread on a fixed schedule. There is no aggregator.
const (
	samplePopulation = 128
	sampleWakeEvery  = 10 * time.Millisecond
	sampleWakers     = 3       // threads woken per sampleWakeEvery, staggered
	sampleBurstBytes = 2 << 20 // one burst: a read of this much from /dev/zero
	// sampleTickPeriod is the fixed schedule: far faster than the paper's
	// 1 s, so a run holds thousands of ticks and the p99 is well supported.
	sampleTickPeriod = 2500 * time.Microsecond
	sampleWarmTicks  = 20 // let adaptive sampling settle before timing
)

// population is the hosted thread set.
type population struct {
	zero *os.File
	tids []int
	wake []chan struct{}
	stop chan struct{}
	wg   sync.WaitGroup
}

// spawnPopulation starts n goroutines each locked to its own OS thread,
// parked until woken for a burst of CPU. A burst is one large read from
// /dev/zero: the CPU is burnt in the kernel, so the thread, like a real
// application thread, holds none of the Go runtime's processors while it
// runs and the monitor's thread never queues behind it for one.
func spawnPopulation(n int) (*population, error) {
	zero, err := os.Open("/dev/zero")
	if err != nil {
		return nil, err
	}
	// Every burst reads into this one buffer: its contents are never used.
	buf := make([]byte, sampleBurstBytes)
	p := &population{stop: make(chan struct{}), wake: make([]chan struct{}, n), zero: zero}
	tids := make(chan int, n) // one send per thread
	for i := range p.wake {
		p.wake[i] = make(chan struct{}, 1)
		p.wg.Add(1)
		go func(wake <-chan struct{}) {
			defer p.wg.Done()
			// Never unlocked: the thread exits with the goroutine.
			runtime.LockOSThread()
			tids <- syscall.Gettid()
			for {
				select {
				case <-p.stop:
					return
				case <-wake:
					_, _ = zero.Read(buf) // /dev/zero reads cannot fail short of a closed file
				}
			}
		}(p.wake[i])
	}
	for range p.wake {
		p.tids = append(p.tids, <-tids)
	}
	return p, nil
}

// schedule wakes a seeded choice of sampleWakers threads every
// sampleWakeEvery, one at a time, until stop closes.
func (p *population) schedule(seed uint64, stop <-chan struct{}, done *sync.WaitGroup) {
	defer done.Done()
	rng := sim.NewRNG(seed ^ 0x73616d706c65) // "sample"
	t := time.NewTicker(sampleWakeEvery / sampleWakers)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		select {
		case p.wake[rng.Intn(len(p.wake))] <- struct{}{}:
		default: // still busy from the last wake
		}
	}
}

func (p *population) close() {
	close(p.stop)
	p.wg.Wait()
	_ = p.zero.Close() // read-only; every reader has exited
}

// ticker owns the monitor and the locked OS thread that ticks it. Every
// call into the monitor runs on that thread, via do.
type ticker struct {
	reqs chan func()
	done chan struct{}
}

func newTicker() *ticker {
	t := &ticker{reqs: make(chan func()), done: make(chan struct{})}
	go func() {
		defer close(t.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		for fn := range t.reqs {
			fn()
		}
	}()
	return t
}

// do runs fn on the ticking thread and returns once it has.
func (t *ticker) do(fn func()) {
	done := make(chan struct{})
	t.reqs <- func() {
		defer close(done)
		fn()
	}
	<-done
}

func (t *ticker) close() {
	close(t.reqs)
	<-t.done
}

// threadCPU is the calling thread's CPU time. getrusage(RUSAGE_THREAD)
// reports the same quantity but in scheduler ticks (4 ms here), far
// coarser than one monitor tick, so the thread CPU clock is read instead.
func threadCPU() int64 { return cpuClock(clockThreadCPUTime) }

// sleepUntil blocks the calling OS thread in the kernel until t: a locked
// thread woken by the Go scheduler would start its tick a scheduler
// hand-off late.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		if err := syscall.Nanosleep(&ts, nil); err != nil && err != syscall.EINTR {
			return
		}
	}
}

func taskCount() int {
	ents, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return -1
	}
	return len(ents)
}

// tickBooks counts what the stream received, per tick.
type tickBooks struct {
	tick     int // 0 during warm-up
	lwp      int // LWP events this tick
	events   int // all events this tick
	hosted   map[int]int
	dupes    int
	lastSeen map[int]int
}

type sampleRig struct {
	pop     *population
	tk      *ticker
	mon     *zerosum.Monitor
	rec     *obs.Recorder
	books   *tickBooks
	schStop chan struct{}
	schWG   sync.WaitGroup
}

func runSample(o opts) outcome {
	out := outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
	durA := time.Duration(o.seconds * openShare * float64(time.Second))
	durB := time.Duration(o.seconds * (1 - openShare) * float64(time.Second))
	period := sampleTickPeriod
	sampleTicks := int(durA / period)

	setup := func() (*sampleRig, error) {
		pop, err := spawnPopulation(samplePopulation)
		if err != nil {
			return nil, fmt.Errorf("population: %w", err)
		}
		sr := &sampleRig{pop: pop, tk: newTicker(), rec: obs.NewRecorder(0)}
		sr.books = &tickBooks{hosted: map[int]int{}, lastSeen: map[int]int{}}
		for _, tid := range sr.pop.tids {
			sr.books.hosted[tid] = 0
		}
		es := &export.Stream{}
		b := sr.books
		es.Subscribe(func(ev export.Event) {
			b.events++
			if ev.Kind != export.EventLWP {
				return
			}
			b.lwp++
			if n, ok := b.hosted[ev.LWP.TID]; ok {
				if b.tick > 0 && b.lastSeen[ev.LWP.TID] == b.tick {
					b.dupes++
				}
				b.lastSeen[ev.LWP.TID] = b.tick
				b.hosted[ev.LWP.TID] = n + 1
			}
		})
		sr.tk.do(func() {
			sr.mon, err = zerosum.MonitorSelf(zerosum.MonitorConfig{
				Period: period, Stream: es, KeepSeries: true, Obs: sr.rec,
				Adaptive: zerosum.AdaptiveConfig{Enabled: true},
			})
			if err == nil {
				sr.mon.SetSelfTID(syscall.Gettid())
			}
		})
		if err != nil {
			sr.close()
			return nil, fmt.Errorf("monitor: %w", err)
		}
		sr.schStop = make(chan struct{})
		sr.schWG.Add(1)
		go sr.pop.schedule(o.seed, sr.schStop, &sr.schWG)
		for i := 0; i < sampleWarmTicks; i++ {
			sr.tk.do(func() { err = sr.mon.Tick() })
			if err != nil {
				sr.close()
				return nil, fmt.Errorf("warm-up tick: %w", err)
			}
			time.Sleep(period)
		}
		return sr, nil
	}
	sr, setupS, err := timedSetups(o, setup, func(sr *sampleRig) { sr.close() })
	if err != nil {
		out.errf("setup: %v", err)
		return out
	}
	out.e2e["setup_s"] = setupS
	note("population %d threads (%d woken per %v, each reading %d KiB of /dev/zero); monitor period %v, %d fixed-schedule ticks then %v back to back",
		samplePopulation, sampleWakers, sampleWakeEvery, sampleBurstBytes>>10, period, sampleTicks, durB)

	heap0 := liveHeap()
	start := time.Now()

	// Phase A: ticks on a fixed schedule, timed from their due times.
	lat := timing{name: "tick"}
	var late []float64
	var cpuNS int64
	var lwps, events, skips, accounted, listedMismatch int
	var tickErr error
	// The schedule runs on the ticking thread itself: no hand-off between
	// a tick's due time and its start.
	sr.tk.do(func() {
		for i := 0; i < sampleTicks; i++ {
			due := start.Add(time.Duration(i) * period)
			sleepUntil(due)
			before := taskCount()
			r0, s0 := sr.mon.SampleSkips()
			k0 := sr.mon.SelfStats().AdaptiveSkips
			sr.books.tick = i + 1
			sr.books.lwp, sr.books.events = 0, 0
			reqID := o.rec.newReq()
			t0 := o.rec.now()
			c0 := threadCPU()
			begin := time.Now()
			tickErr = sr.mon.Tick()
			end := time.Now()
			c1 := threadCPU()
			o.rec.add("core.tick", reqID, 0, t0, o.rec.now())
			if tickErr != nil {
				return
			}
			after := taskCount()
			r1, s1 := sr.mon.SampleSkips()
			k1 := sr.mon.SelfStats().AdaptiveSkips
			lat.add(end.Sub(due))
			late = append(late, float64(begin.Sub(due))/1e6)
			cpuNS += c1 - c0
			lwps += sr.books.lwp
			events += sr.books.events
			skipped := int(k1 - k0)
			skips += skipped
			acc := sr.books.lwp + skipped + int(r1-r0) + int(s1-s0)
			accounted += acc
			if acc < min(before, after) || acc > max(before, after) {
				listedMismatch++
			}
		}
	})
	if tickErr != nil {
		out.errf("tick: %v", tickErr)
	}
	// Growth over the fixed-schedule phase: the series the monitor retains
	// for a fixed number of ticks.
	out.e2e["heap_growth_mb"] = (float64(liveHeap()) - float64(heap0)) / 1e6

	// Phase B: back-to-back ticks.
	// Allocations are counted here, where nothing but ticks runs on the
	// ticking thread (phase A also lists /proc/self/task for its checks).
	var peak float64
	var peakTotal int
	mal0 := mallocs()
	// The sampler's capacity is its thread's: events per second of that
	// thread's CPU time. Wall-clock throughput here would mostly measure
	// how often the kernel and the Go scheduler let the thread run.
	sr.tk.do(func() {
		bStart, c0 := time.Now(), threadCPU()
		for time.Since(bStart) < durB && tickErr == nil {
			sr.books.events = 0
			sr.books.tick++
			tickErr = sr.mon.Tick()
			peakTotal += sr.books.events
		}
		peak = float64(peakTotal) / (float64(threadCPU()-c0) / 1e9)
	})
	malB := mallocs() - mal0
	if tickErr != nil {
		out.errf("closed-loop tick: %v", tickErr)
	}

	// Checks: one LWP sample (or an adaptive skip) per listed thread per
	// tick; no hosted thread twice in a tick; every hosted thread seen.
	if listedMismatch > 0 {
		out.errf("sampling: %d of %d ticks accounted for a thread count outside the /proc/self/task listing", listedMismatch, sampleTicks)
	}
	if sr.books.dupes > 0 {
		out.errf("sampling: %d hosted-thread samples repeated within one tick", sr.books.dupes)
	}
	for tid, n := range sr.books.hosted {
		if n == 0 {
			out.errf("sampling: hosted thread %d never sampled", tid)
			break
		}
	}

	tick50, tick95, tick99, err := lat.quantiles()
	if err != nil {
		out.errs = append(out.errs, err)
	}
	lateP99, _ := percentile(late, 0.99)
	if lateP99 > float64(lagLimit.Milliseconds()) {
		out.errf("invalid run: tick schedule lateness p99 %.1f ms exceeds the %v lag limit", lateP99, lagLimit)
	}
	out.e2e["latency_p50_ms"] = tick50
	out.e2e["latency_p95_ms"] = tick95
	if events > 0 {
		out.e2e["cpu_ns_per_event"] = float64(cpuNS) / float64(events)
	}
	out.e2e["peak_events_per_cpu_s"] = peak
	if accounted > 0 {
		out.e2e["ok_frac"] = float64(lwps+skips) / float64(accounted)
	}
	out.attempted = sampleTicks
	out.failed = listedMismatch
	out.cost = out.e2e["cpu_ns_per_event"]
	note("tick latency p99 %.3f ms", tick99)
	note("ticks: %d, %.1f LWP samples + %.1f adaptive skips per tick, %.1f events per tick, tick CPU %.1f us, late p99 %.3f ms",
		sampleTicks, float64(lwps)/float64(sampleTicks), float64(skips)/float64(sampleTicks), float64(events)/float64(sampleTicks),
		float64(cpuNS)/float64(sampleTicks)/1e3, lateP99)

	if o.rec != nil {
		m := out.layers
		m["gen.late_ms_p99"] = lateP99
		m["gen.events"] = float64(events)
		for _, st := range sr.rec.Stats() {
			switch st.Stage {
			case "scan":
				m["core.scan_us"] = st.MeanNS / 1e3
			case "sample":
				m["core.sample_us"] = st.MeanNS / 1e3
			}
		}
		m["core.lwps_per_tick"] = float64(lwps) / float64(sampleTicks)
		m["core.adaptive_skips_per_tick"] = float64(skips) / float64(sampleTicks)
		if peakTotal > 0 {
			m["go.allocs_per_event"] = float64(malB) / float64(peakTotal)
		}
		m["go.gc_cpu_frac"] = gcCPUFraction()
	}
	sr.close()
	return out
}

func (sr *sampleRig) close() {
	if sr.schStop != nil {
		close(sr.schStop)
		sr.schWG.Wait()
	}
	if sr.mon != nil {
		sr.tk.do(sr.mon.Finish)
	}
	sr.tk.close()
	sr.pop.close()
}

// corePass measures the core layer on the benchmark's own process after an
// ingest workload: MonitorSelf (adaptive sampling on, as in sample) ticks
// corePassTicks times on a locked thread, every sampleTickPeriod, over
// the threads the pipeline left running.
func corePass(m map[string]float64) error {
	const corePassTicks = 400
	rec := obs.NewRecorder(0)
	es := &export.Stream{}
	lwps := 0
	es.Subscribe(func(ev export.Event) {
		if ev.Kind == export.EventLWP {
			lwps++
		}
	})
	tk := newTicker()
	defer tk.close()
	var err error
	var skips uint64
	tk.do(func() {
		var mon *zerosum.Monitor
		mon, err = zerosum.MonitorSelf(zerosum.MonitorConfig{
			Period: sampleTickPeriod, Stream: es, Obs: rec,
			Adaptive: zerosum.AdaptiveConfig{Enabled: true},
		})
		if err != nil {
			return
		}
		defer mon.Finish()
		mon.SetSelfTID(syscall.Gettid())
		start := time.Now()
		for i := 0; i < corePassTicks && err == nil; i++ {
			sleepUntil(start.Add(time.Duration(i) * sampleTickPeriod))
			err = mon.Tick()
		}
		skips = mon.SelfStats().AdaptiveSkips
	})
	if err != nil {
		return fmt.Errorf("core pass: %w", err)
	}
	for _, st := range rec.Stats() {
		switch st.Stage {
		case "scan":
			m["core.scan_us"] = st.MeanNS / 1e3
		case "sample":
			m["core.sample_us"] = st.MeanNS / 1e3
		}
	}
	m["core.lwps_per_tick"] = float64(lwps) / corePassTicks
	m["core.adaptive_skips_per_tick"] = float64(skips) / corePassTicks
	return nil
}
