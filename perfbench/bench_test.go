package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileRule(t *testing.T) {
	if got := minSamplesFor(0.99); got != 1000 {
		t.Fatalf("minSamplesFor(0.99) = %d, want 1000", got)
	}
	if got := minSamplesFor(0.5); got != 20 {
		t.Fatalf("minSamplesFor(0.5) = %d, want 20", got)
	}
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // reversed: percentile must sort
		}
		return s
	}
	if v, ok := percentile(seq(1000), 0.99); !ok || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v (ok %v), want 990 with 10 samples beyond", v, ok)
	}
	if _, ok := percentile(seq(999), 0.99); ok {
		t.Fatal("p99 of 999 samples has only 9 beyond it, yet was accepted")
	}
	tm := timing{name: "t", ms: seq(999)}
	if _, _, _, err := tm.quantiles(); err == nil {
		t.Fatal("quantiles accepted an unsupported p99")
	}
	if v, ok := percentile(seq(21), 0.5); !ok || v != 11 {
		t.Fatalf("median of 1..21 = %v (ok %v), want 11", v, ok)
	}
}

func TestComputeLags(t *testing.T) {
	ms := int64(time.Millisecond)
	timeline := []admitPoint{
		{tNS: 0, count: 100},
		{tNS: 12 * ms, count: 150},
		{tNS: 30 * ms, count: 150},
		{tNS: 31 * ms, count: 400},
	}
	cps := []checkpoint{
		{dueNS: 0, need: 100},       // covered at once: lag 0
		{dueNS: 5 * ms, need: 120},  // covered at 12 ms
		{dueNS: 10 * ms, need: 150}, // covered at 12 ms
		{dueNS: 20 * ms, need: 300}, // covered at 31 ms
		{dueNS: 40 * ms, need: 401}, // never covered: a miss
	}
	r := computeLags(cps, timeline, 100*ms)
	want := []float64{0, 7, 2, 11, 60}
	if r.misses != 1 {
		t.Fatalf("misses = %d, want 1", r.misses)
	}
	for i, w := range want {
		if math.Abs(r.lagMS[i]-w) > 1e-9 {
			t.Fatalf("lag[%d] = %v ms, want %v (all %v)", i, r.lagMS[i], w, r.lagMS)
		}
	}
	// A miss is censored at the end of observation, so it ranks above
	// every covered checkpoint and drags the tail up with it.
	if p, _ := percentile(append([]float64(nil), r.lagMS...), 0.99); p != 60 {
		t.Fatalf("tail with a miss = %v, want the censored 60 ms", p)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "post", start: 0, end: 100},
		{name: "ingest", parent: 1, start: 10, end: 40},
		{name: "ingest", parent: 1, start: 30, end: 50},  // overlaps the first child
		{name: "ingest", parent: 1, start: 90, end: 120}, // runs past the parent
	}
	st := selfTimes(spans)
	if st["post"] != 100-40-10 {
		t.Fatalf("post self time = %d, want 50", st["post"])
	}
	if st["ingest"] != 30+20+30 {
		t.Fatalf("ingest self time = %d, want 80", st["ingest"])
	}
}

// balanced is a tree's books with nothing lost.
func balanced() ledger {
	return ledger{
		published: 1000, enqueued: 1000, sent: 1000, sentBatches: 4,
		tree: true, firstAdmitted: 1000,
		fwdEnqueued: 1000, fwdAcked: 1000,
		rootAdmitted: 1000, census: 1000,
	}
}

func TestConservation(t *testing.T) {
	if errs := balanced().check(); len(errs) != 0 {
		t.Fatalf("balanced books failed: %v", errs)
	}
	// A drop the agent counted still closes the books.
	counted := balanced()
	counted.published, counted.enqueued, counted.ringDrops = 1001, 1001, 1
	if errs := counted.check(); len(errs) != 0 {
		t.Fatalf("counted ring drop failed the books: %v", errs)
	}
	flat := balanced()
	flat.tree, flat.fwdEnqueued, flat.fwdAcked = false, 0, 0
	if errs := flat.check(); len(errs) != 0 {
		t.Fatalf("flat books failed: %v", errs)
	}
}

func TestConservationTripsOnInjectedDrop(t *testing.T) {
	cases := map[string]func(l *ledger){
		"silent loss between forwarder and root": func(l *ledger) { l.rootAdmitted--; l.census-- },
		"silent loss between agent and leaf":     func(l *ledger) { l.firstAdmitted--; l.fwdEnqueued--; l.fwdAcked--; l.rootAdmitted--; l.census-- },
		"event lost inside the agent":            func(l *ledger) { l.published++; l.enqueued++ },
		"census disagrees with the root":         func(l *ledger) { l.census-- },
		"forwarder still holding events":         func(l *ledger) { l.fwdPending = 3 },
	}
	for name, inject := range cases {
		l := balanced()
		inject(&l)
		if errs := l.check(); len(errs) == 0 {
			t.Errorf("%s: books closed over an injected drop", name)
		}
	}
}

func TestSeedDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates three jobs")
	}
	hash := func(seed uint64) string {
		feed, err := churnFeed(seed)
		if err != nil {
			t.Fatal(err)
		}
		r := &rig{feed: feed}
		ids, err := r.buildSchedule(50000)
		if err != nil {
			t.Fatal(err)
		}
		return r.scheduleHash(ids)
	}
	a, b, c := hash(1), hash(1), hash(2)
	if a != b {
		t.Fatalf("seed 1 gave two event sequences: %s vs %s", a, b)
	}
	if a == c {
		t.Fatal("seeds 1 and 2 gave the same event sequence")
	}
}

func TestTraceShapeAtSeed1(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a job")
	}
	tp, err := simulate("miniqmc", 1)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := traceShape(tp)
	if err != nil {
		t.Fatal(err)
	}
	// The 8-rank Frontier miniQMC job at seed 1: 32,392 events over 27
	// simulated seconds, 82% of them hardware-thread samples.
	if sh.events != 32392 || sh.seconds != 27 || sh.ranks != 8 {
		t.Fatalf("shape = %v", sh)
	}
	if hwt := float64(sh.kinds[1]) / float64(sh.events); hwt < 0.82 || hwt > 0.83 {
		t.Fatalf("HWT share %.3f, want 0.82", hwt)
	}
}
