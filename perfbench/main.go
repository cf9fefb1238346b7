// Command perfbench is the repository's end-to-end benchmark. It generates
// a workload's inputs from the simulator (or, for "sample", a thread
// population on the live host), drives the real pipeline in one process
// over loopback HTTP, checks the outputs, and prints every metric by name
// and unit. The last line of standard output is one JSON object:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}
//
// With -trace 0 the metrics are the end-to-end set; with -trace 1 the run
// is repeated with spans recorded around every layer call and the metrics
// are the per-layer set. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the monitoring pipeline sees. Every
// workload reports all of them; the latency and ok_frac pair is the
// workload's headline one: freshness on fleet and churn, query latency on
// dashboard, tick latency on sample (README.md gives each reading).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"cpu_ns_per_event", "ns"},
	{"peak_events_per_cpu_s", "1/cpu-s"},
	{"ok_frac", "ratio"},
	{"heap_growth_mb", "MB"},
}

// perLayer are the traced run's metrics, named by module. A workload that
// never reaches a layer reports its metrics as 0.
var perLayer = []metricDef{
	{"gen.late_ms_p99", "ms"},
	{"gen.events", "count"},
	{"export.publish_ns", "ns"},
	{"aggd.agent.post_ms_p50", "ms"},
	{"aggd.agent.post_ms_p99", "ms"},
	{"aggd.agent.events_per_batch", "count"},
	{"aggd.agent.ring_drops", "count"},
	{"aggd.agent.send_drops", "count"},
	{"aggd.agent.retries", "count"},
	{"aggd.wire.body_bytes_per_event", "B"},
	{"aggd.wire.encode_ns_per_event", "ns"},
	{"aggd.wire.decode_ns_per_event", "ns"},
	{"aggd.wire.gzip_ns_per_event", "ns"},
	{"aggd.wire.gunzip_ns_per_event", "ns"},
	{"aggd.wire.bytes_per_event", "B"},
	{"aggd.wire.gzip_ratio", "ratio"},
	{"aggd.server.ingest_us_p50", "us"},
	{"aggd.server.ingest_us_p99", "us"},
	{"aggd.server.dup_batches", "count"},
	{"aggd.server.lost_batches", "count"},
	{"aggd.server.ingest_errors", "count"},
	{"aggd.server.corrupt_frames", "count"},
	{"tsdb.append_ns_per_sample", "ns"},
	{"tsdb.bytes_per_sample", "B"},
	{"tsdb.series", "count"},
	{"tsdb.sealed_chunks", "count"},
	{"tsdb.query_us.raw_tail", "us"},
	{"tsdb.query_us.grid", "us"},
	{"tsdb.query_us.offgrid", "us"},
	{"tsdb.query_us.topk", "us"},
	{"tsdb.query_us.heatmap", "us"},
	{"aggd.forward.post_ms_p50", "ms"},
	{"aggd.forward.post_ms_p99", "ms"},
	{"aggd.forward.events_per_rollup", "count"},
	{"aggd.forward.pending_max", "count"},
	{"aggd.forward.dropped", "count"},
	{"aggd.forward.rollup_decode_ns_per_event", "ns"},
	{"aggd.http.metrics_ms", "ms"},
	{"aggd.http.metrics_bytes", "B"},
	{"aggd.http.summary_ms", "ms"},
	{"aggd.http.jobs_ms", "ms"},
	{"core.scan_us", "us"},
	{"core.sample_us", "us"},
	{"core.lwps_per_tick", "count"},
	{"core.adaptive_skips_per_tick", "count"},
	{"go.allocs_per_event", "count"},
	{"go.gc_cpu_frac", "ratio"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
	{"trace.spans_dropped", "count"},
}

// opts is one run's settings.
type opts struct {
	seed    uint64
	seconds float64
	rec     *spanRec // nil: untraced
	setups  int      // set-ups to time; the last one is kept
	outDir  string
}

// outcome is what one workload run measured and checked.
type outcome struct {
	e2e       map[string]float64
	layers    map[string]float64
	attempted int
	failed    int
	errs      []error
	// cost is the run's headline cost for the tracing-overhead comparison.
	cost float64
}

func (o *outcome) errf(format string, args ...any) {
	o.errs = append(o.errs, fmt.Errorf(format, args...))
}

var workloads = map[string]func(opts) outcome{
	"fleet":     runFleet,
	"churn":     runChurn,
	"dashboard": runDashboard,
	"sample":    runSample,
}

// lagLimit is the freshness limit: a run whose generator ran this late
// did not offer the load it claims, and is invalid.
const lagLimit = time.Second

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: fleet, churn, dashboard or sample")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 20, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
		outDir  = flag.String("out", ".bench_out", "directory for span files")
	)
	flag.Parse()
	fn := workloads[*name]
	if fn == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be at least 1")
		return 2
	}
	runtime.GOMAXPROCS(nproc)
	if g := runtime.GOMAXPROCS(0); g > nproc {
		fmt.Fprintf(os.Stderr, "perfbench: GOMAXPROCS %d exceeds nproc %d\n", g, nproc)
		return 1
	}
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%g trace=%d GOMAXPROCS=%d nproc=%d\n",
		*name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0), nproc)

	o := opts{seed: *seed, seconds: *seconds, setups: 5, outDir: *outDir}
	var out outcome
	var defs []metricDef
	var values map[string]float64
	if *trace == 0 {
		out = fn(o)
		defs, values = endToEnd, out.e2e
	} else {
		o.setups = 1
		plain := fn(o)
		o.rec = newSpanRec(1 << 18)
		out = fn(o)
		out.errs = append(plain.errs, out.errs...)
		out.attempted += plain.attempted
		out.failed += plain.failed
		if plain.cost > 0 {
			out.layers["trace.overhead_pct"] = 100 * (out.cost/plain.cost - 1)
		}
		out.layers["trace.spans"] = float64(len(o.rec.recorded()))
		out.layers["trace.spans_dropped"] = float64(o.rec.dropped.Load())
		path := filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", *name, *seed))
		if err := writeSpans(path, o.rec.recorded()); err != nil {
			out.errf("write spans: %v", err)
		} else {
			fmt.Printf("# spans: %s (%d spans)\n", path, len(o.rec.recorded()))
		}
		printSelfTimes(o.rec.recorded())
		defs, values = perLayer, out.layers
	}
	for _, err := range out.errs {
		fmt.Printf("# CHECK FAILED: %v\n", err)
	}
	metrics := map[string]map[string]any{}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			if ok {
				out.errf("metric %s is %v", d.name, v)
			}
			v = 0
		}
		fmt.Printf("# %-40s %16.6g %s\n", d.name, v, d.unit)
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	correct := len(out.errs) == 0
	if out.attempted < 1 {
		out.attempted = 1
		correct = false
	}
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": out.attempted, "failed": out.failed, "metrics": metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

func printSelfTimes(spans []span) {
	st := selfTimes(spans)
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return st[names[i]] > st[names[j]] })
	fmt.Println("# span self time:")
	for _, n := range names {
		fmt.Printf("#   %-28s %12.3f ms\n", n, float64(st[n])/1e6)
	}
}

// timedSetups runs setup o.setups times, tearing down all but the last,
// and returns the kept one with the median set-up time in seconds. Each
// set-up starts from a collected heap, so none pays for the garbage its
// predecessor left.
func timedSetups[T any](o opts, setup func() (T, error), teardown func(T)) (T, float64, error) {
	var kept T
	var secs []float64
	for i := 0; i < o.setups; i++ {
		runtime.GC()
		start := time.Now()
		v, err := setup()
		if err != nil {
			return kept, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
		if i < o.setups-1 {
			teardown(v)
			continue
		}
		kept = v
	}
	return kept, median(secs), nil
}

// cpuNS is this process's CPU time, user and system, over all threads.
func cpuNS() int64 { return cpuClock(clockProcessCPUTime) }

// CPU-time clocks (clock_gettime(2)): nanosecond counts of the scheduler's
// runtime accounting, unlike getrusage's tick-sampled figures.
const (
	clockProcessCPUTime = 2
	clockThreadCPUTime  = 3
)

func cpuClock(id uintptr) int64 {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return ts.Nano()
}

// liveHeap is the live heap after forced collections: the second one also
// empties the sync.Pool victim caches (pooled gzip writers are large), so
// only reachable state is counted.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func gcCPUFraction() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.GCCPUFraction
}

func note(format string, args ...any) {
	fmt.Printf("# "+format+"\n", args...)
}

func capsLine(caps map[string]int) string {
	keys := make([]string, 0, len(caps))
	for k := range caps {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%d", k, caps[k])
	}
	return b.String()
}
