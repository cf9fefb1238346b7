package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/url"
	"sort"
	"strconv"
	"time"

	"zerosum/internal/aggd"
	"zerosum/internal/core"
	"zerosum/internal/export"
	"zerosum/internal/report"
	"zerosum/internal/sim"
	"zerosum/internal/tsdb"
)

// dashboard: reads beside writes. Set-up preloads a flat root with
// dashLoops replays of the 8-rank miniQMC trace (minutes of sample time
// per series, so blocks seal and rollups exist) and the ranks' snapshots.
// Ingest then continues at the low dashRate while an open-loop reader
// issues a seeded mix of raw-tail, on-grid and off-grid stepped queries,
// top-k, TSDB heatmaps, summaries and /metrics scrapes, each answer
// checked against values computed from the replayed trace.
const (
	dashJob   = "dash"
	dashLoops = 6
	dashRate  = 4000
)

// dashClasses is the reader's mix: each block of 20 queries holds every
// class its weight's number of times.
var dashClasses = []struct {
	name   string
	weight int
}{
	{"raw_tail", 5}, {"grid", 4}, {"offgrid", 4}, {"topk", 3},
	{"heatmap", 2}, {"summary", 1}, {"metrics", 1},
}

// deck deals 0..n-1 in blocks, each block in a seeded order, so every
// value comes up equally often whatever the seed.
type deck struct {
	rng  *sim.RNG
	n    int
	left []int
}

func (d *deck) next() int {
	if len(d.left) == 0 {
		for i := 0; i < d.n; i++ {
			d.left = append(d.left, i)
		}
		for i := len(d.left) - 1; i > 0; i-- {
			j := d.rng.Intn(i + 1)
			d.left[i], d.left[j] = d.left[j], d.left[i]
		}
	}
	v := d.left[0]
	d.left = d.left[1:]
	return v
}

// dashDealer draws the mix: class, rank and window offset each from its
// own deck.
type dashDealer struct {
	classes      []string
	class, rank  deck
	windowOffset deck
}

func newDashDealer(rng *sim.RNG, ranks int) *dashDealer {
	d := &dashDealer{}
	for _, c := range dashClasses {
		for i := 0; i < c.weight; i++ {
			d.classes = append(d.classes, c.name)
		}
	}
	d.class = deck{rng: rng, n: len(d.classes)}
	d.rank = deck{rng: rng, n: ranks}
	d.windowOffset = deck{rng: rng, n: 6}
	return d
}

// rankIndex is what rank r's preloaded samples are, for checking answers.
type rankIndex struct {
	lwpT    []int64 // sample time (ns) of every preloaded LWP event, ascending
	lwpTID  []int
	lwpUser []float64
	hwtT    []int64 // sample time of every preloaded HWT event, ascending
}

type dashIndex struct {
	preEndSec float64
	ranks     []rankIndex
	events    uint64 // preloaded events
	summary   []byte // the summary the root must serve
}

// dashQuery is one reader query and the TSDB call that answers it.
type dashQuery struct {
	query
	opts tsdb.QueryOpts
	k    int
}

func runDashboard(o opts) outcome {
	var idx *dashIndex
	var mix []dashQuery
	return runIngest(o, ingestSpec{
		cfg: rigConfig{rate: dashRate},
		// The mix's heavy classes cost milliseconds each; this rate keeps
		// the reader under one CPU.
		queryRate: 150,
		prepare: func(seed uint64) (jobFeed, error) {
			tp, err := simulate("miniqmc", seed)
			if err != nil {
				return nil, err
			}
			printShape(tp)
			j := &job{id: dashJob, tp: tp}
			for _, rt := range tp.ranks {
				j.streams = append(j.streams, &stream{job: j, node: "frontier00000", rt: rt, limit: -1, speed: 1})
			}
			return single(j), nil
		},
		warm: func(r *rig) error {
			err := preload(r, func(s *stream) int { return dashLoops * len(s.rt.events) })
			if err != nil {
				return err
			}
			for _, s := range r.streams {
				if err := s.agent.PushSnapshot(s.rt.snap, s.rt.commRow); err != nil {
					return fmt.Errorf("preload snapshot: %w", err)
				}
			}
			idx, err = indexPreload(r)
			return err
		},
		startAgents: true,
		query: func(r *rig, seed uint64) func(int) query {
			dealer := newDashDealer(sim.NewRNG(seed^0x64617368), len(idx.ranks)) // "dash"
			mix = mix[:0]
			return func(int) query {
				q := idx.next(dealer)
				if len(mix) < 256 {
					mix = append(mix, q)
				}
				return q.query
			}
		},
		layers: func(r *rig, out *outcome) {
			replayQueries(r.root.TSDB(), mix, out.layers)
			out.layers["aggd.http.summary_ms"], _ = timeGets(r, "/api/job/"+dashJob+"/summary", 5)
		},
	})
}

// indexPreload records, per rank, the samples the preload offered.
func indexPreload(r *rig) (*dashIndex, error) {
	idx := &dashIndex{ranks: make([]rankIndex, len(r.streams))}
	var snaps []core.Snapshot
	for i, s := range r.streams {
		ri := &idx.ranks[i]
		for pos := 0; pos < s.pos; pos++ {
			ev, t := s.at(pos)
			ns := tsdb.TimeToNanos(t)
			switch ev.Kind {
			case export.EventLWP:
				ri.lwpT = append(ri.lwpT, ns)
				ri.lwpTID = append(ri.lwpTID, ev.LWP.TID)
				ri.lwpUser = append(ri.lwpUser, ev.LWP.UserPct)
			case export.EventHWT:
				ri.hwtT = append(ri.hwtT, ns)
			}
		}
		idx.events += uint64(s.pos)
		snaps = append(snaps, s.rt.snap)
		if s.rt.rank != i {
			return nil, fmt.Errorf("dashboard: stream %d carries rank %d", i, s.rt.rank)
		}
	}
	idx.preEndSec = float64(dashLoops) * r.streams[0].job.tp.loopSec
	want, err := report.Aggregate(snaps, core.EvalThresholds{})
	if err != nil {
		return nil, err
	}
	if idx.summary, err = json.MarshalIndent(want, "", "  "); err != nil {
		return nil, err
	}
	idx.summary = append(idx.summary, '\n')
	return idx, nil
}

// window returns [lo, hi) indexes of ts inside [start, end) seconds.
func window(ts []int64, start, end float64) (int, int) {
	s, e := tsdb.TimeToNanos(start), tsdb.TimeToNanos(end)
	lo := sort.Search(len(ts), func(i int) bool { return ts[i] >= s })
	hi := sort.Search(len(ts), func(i int) bool { return ts[i] >= e })
	return lo, hi
}

// next draws one query of the mix. Every window lies inside the preloaded
// span, which later ingest (newer samples) never changes, so each answer
// is known exactly. Grid windows lie in the sealed blocks and step on the
// downsample grid (rollup fast path); off-grid ones do not (bitstream
// decode).
func (idx *dashIndex) next(d *dashDealer) dashQuery {
	class := d.classes[d.class.next()]
	rank := d.rank.next()
	ri := &idx.ranks[rank]
	k10 := float64(10 * d.windowOffset.next())
	base := "/api/job/" + dashJob
	sel := func(path, metric string, start, end, step float64, agg string, extra string) string {
		v := url.Values{}
		v.Set("metric", metric)
		v.Set("rank", strconv.Itoa(rank))
		v.Set("start", strconv.FormatFloat(start, 'f', -1, 64))
		v.Set("end", strconv.FormatFloat(end, 'f', -1, 64))
		if step > 0 {
			v.Set("step", strconv.FormatFloat(step, 'f', -1, 64))
		}
		if agg != "" {
			v.Set("agg", agg)
		}
		return base + path + "?" + v.Encode() + extra
	}
	opts := func(metric string, start, end, step float64, agg tsdb.AggKind) tsdb.QueryOpts {
		return tsdb.QueryOpts{Metric: metric, Rank: rank, TID: -1,
			Start: tsdb.TimeToNanos(start), End: tsdb.TimeToNanos(end), Step: tsdb.TimeToNanos(step), Agg: agg}
	}
	switch class {
	case "raw_tail":
		start, end := idx.preEndSec-10, idx.preEndSec
		lo, hi := window(ri.lwpT, start, end)
		want := append([]float64(nil), ri.lwpUser[lo:hi]...)
		sort.Float64s(want)
		return dashQuery{
			query: query{class: class, path: sel("/query", "lwp.user_pct", start, end, 0, "", ""),
				check: func(b []byte) error { return checkRaw(b, want) }},
			opts: opts("lwp.user_pct", start, end, 0, tsdb.AggMean),
		}
	case "grid", "offgrid":
		start, step := k10, 10.0
		if class == "offgrid" {
			start, step = k10+3, 7
		}
		end := start + 30
		lo, hi := window(ri.hwtT, start, end)
		return dashQuery{
			query: query{class: class, path: sel("/query", "hwt.user_pct", start, end, step, "count", ""),
				check: func(b []byte) error { return checkCount(b, hi-lo) }},
			opts: opts("hwt.user_pct", start, end, step, tsdb.AggCount),
		}
	case "topk":
		start, end := k10, k10+30
		lo, hi := window(ri.lwpT, start, end)
		peak := map[int]float64{}
		for i := lo; i < hi; i++ {
			if v, ok := peak[ri.lwpTID[i]]; !ok || ri.lwpUser[i] > v {
				peak[ri.lwpTID[i]] = ri.lwpUser[i]
			}
		}
		var want []float64
		for _, v := range peak {
			want = append(want, v)
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(want)))
		if len(want) > 5 {
			want = want[:5]
		}
		return dashQuery{
			query: query{class: class, path: sel("/topk", "lwp.user_pct", start, end, 0, "max", "&k=5"),
				check: func(b []byte) error { return checkTopK(b, want) }},
			opts: opts("lwp.user_pct", start, end, 0, tsdb.AggMax), k: 5,
		}
	case "heatmap":
		start, end := k10, k10+30
		lo, hi := window(ri.hwtT, start, end)
		return dashQuery{
			query: query{class: class, path: sel("/heatmap", "hwt.user_pct", start, end, 10, "count", ""),
				check: func(b []byte) error { return checkHeatmap(b, hi-lo) }},
			opts: opts("hwt.user_pct", start, end, 10, tsdb.AggCount),
		}
	case "summary":
		return dashQuery{query: query{class: class, path: base + "/summary", check: func(b []byte) error {
			if !bytes.Equal(b, idx.summary) {
				return fmt.Errorf("summary differs from report.Aggregate of the pushed snapshots")
			}
			return nil
		}}}
	default:
		return dashQuery{query: query{class: class, path: "/metrics", check: func(b []byte) error {
			return checkMetrics(b, idx.events)
		}}}
	}
}

func checkRaw(body []byte, want []float64) error {
	var resp aggd.QueryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	var got []float64
	for _, s := range resp.Series {
		for _, p := range s.Points {
			got = append(got, p.Value)
		}
	}
	sort.Float64s(got)
	if len(got) != len(want) {
		return fmt.Errorf("%d raw points, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("raw value %v, want %v", got[i], want[i])
		}
	}
	return nil
}

func checkCount(body []byte, want int) error {
	var resp aggd.QueryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	got := 0.0
	for _, s := range resp.Series {
		for _, p := range s.Points {
			got += p.Value
		}
	}
	if got != float64(want) {
		return fmt.Errorf("count %v, want %d samples replayed into the window", got, want)
	}
	return nil
}

func checkTopK(body []byte, want []float64) error {
	var resp aggd.TopKResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	if len(resp.Entries) != len(want) {
		return fmt.Errorf("%d top-k entries, want %d", len(resp.Entries), len(want))
	}
	for i, e := range resp.Entries {
		if e.Value != want[i] {
			return fmt.Errorf("top-k entry %d = %v, want %v", i, e.Value, want[i])
		}
	}
	return nil
}

func checkHeatmap(body []byte, want int) error {
	var resp aggd.TSDBHeatmapResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	got := 0.0
	for _, row := range resp.Values {
		for _, v := range row {
			if v != nil {
				got += *v
			}
		}
	}
	if got != float64(want) {
		return fmt.Errorf("heatmap count %v, want %d", got, want)
	}
	return nil
}

// checkMetrics wants the exposition to count at least the preloaded events.
func checkMetrics(body []byte, atLeast uint64) error {
	const family = "zerosum_ingest_events_total "
	i := bytes.Index(body, []byte("\n"+family))
	if i < 0 {
		return fmt.Errorf("no %s sample", family)
	}
	line := body[i+1+len(family):]
	if j := bytes.IndexByte(line, '\n'); j >= 0 {
		line = line[:j]
	}
	v, err := strconv.ParseFloat(string(line), 64)
	if err != nil {
		return err
	}
	if v < float64(atLeast) || math.IsNaN(v) {
		return fmt.Errorf("ingest events %v < %d preloaded", v, atLeast)
	}
	return nil
}

// replayQueries times the reader's TSDB queries as direct Store calls,
// median microseconds per class.
func replayQueries(st *tsdb.Store, mix []dashQuery, m map[string]float64) {
	per := map[string][]float64{}
	for _, q := range mix {
		var err error
		start := time.Now()
		switch q.class {
		case "raw_tail", "grid", "offgrid":
			_, err = st.Query(dashJob, q.opts)
		case "topk":
			_, err = st.TopK(dashJob, q.opts, q.k)
		case "heatmap":
			_, err = st.Heatmap(dashJob, q.opts)
		default:
			continue
		}
		if err == nil {
			per[q.class] = append(per[q.class], float64(time.Since(start))/1e3)
		}
	}
	for class, v := range per {
		m["tsdb.query_us."+class] = median(v)
	}
}
