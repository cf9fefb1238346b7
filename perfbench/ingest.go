package main

import (
	"container/heap"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"zerosum/internal/aggd"
	"zerosum/internal/export"
)

// defaultBatch is aggd.AgentConfig's default BatchSize: the closed loop
// feeds a stream only while its agent's unsent backlog is under one batch.
const defaultBatch = 512

// captureBodies is how many request bodies per tier a traced run keeps
// for the wire and rollup post-passes.
const captureBodies = 256

// agentRingCap sizes every agent's ring at four batches instead of the
// default 8192 events. Each agent would live in its own rank's process;
// here they all share the aggregator's, where 64 or more default rings
// (2.5 MB each) would put their memory into the measured heap and every
// collection's mark work. The closed loop never holds more than one batch
// unsent, and a ring overflow would still show as counted ring drops.
const agentRingCap = 4 * defaultBatch

// job is one monitored job: a template replayed under a job ID, one agent
// stream per rank.
type job struct {
	id      string
	tp      *template
	arrival float64 // on the schedule's pre-scale timeline, seconds
	streams []*stream
	left    int // streams with events still to publish (generator only)
}

// stream replays one rank's trace through an export.Stream watched by an
// aggd.Agent, re-stamping sample times so loops keep time rising.
type stream struct {
	job   *job
	node  string
	rt    *rankTrace
	limit int // events to publish in total; < 0 loops forever

	pos      int // next event to publish
	schedPos int // next event buildSchedule places
	start    float64
	speed    float64 // trace seconds per schedule second

	es    export.Stream
	agent *aggd.Agent
	pl    payload
}

func (s *stream) exhausted() bool { return s.limit >= 0 && s.pos >= s.limit }

// at returns event i of the replay: its template event and sample time.
func (s *stream) at(i int) (*export.Event, float64) {
	n := len(s.rt.events)
	ev := &s.rt.events[i%n]
	return ev, ev.TimeSec + float64(i/n)*s.job.tp.loopSec
}

func (s *stream) schedTime() float64 {
	_, t := s.at(s.schedPos)
	return s.start + t/s.speed
}

// jobFeed yields the workload's jobs in arrival order; nil means no more.
type jobFeed func() *job

// rigConfig shapes one ingest pipeline.
type rigConfig struct {
	leaves   int     // 0: agents post to the root directly
	rate     float64 // open-loop offered events/s
	liveJobs int     // closed loop: jobs kept live at once (0: all)
}

// rig is an in-process monitoring pipeline: agents → (leaves →) root over
// loopback HTTP, fed by the benchmark's generator.
type rig struct {
	cfg  rigConfig
	rec  *spanRec
	feed jobFeed

	root     *aggd.Server
	leaves   []*aggd.Server
	tiers    []*httpTier // root first
	rootURL  string
	leafURLs []string
	router   *aggd.Router
	admit    *admitLog

	agentTr, fwdTr, readTr *http.Transport
	agentRT, fwdRT         *timingRT
	readClient             *http.Client
	connCaps               map[string]int

	streams  []*stream
	jobs     []*job
	pending  *job // pulled from feed but not yet placed
	live     []*job
	jobsWG   sync.WaitGroup
	mu       sync.Mutex
	ended    []*job   //zerosum:guardedby mu
	retired  ledger   //zerosum:guardedby mu agent totals of ended jobs
	failures []string //zerosum:guardedby mu

	gen     genStats
	fwdPeak uint64
}

type genStats struct {
	late      timing // per wake: how late the first due event went out
	published int
	pubNS     int64 // traced: summed duration of sampled publishes
	pubN      int
}

func newRig(cfg rigConfig, feed jobFeed, rec *spanRec) (*rig, error) {
	r := &rig{cfg: cfg, rec: rec, feed: feed, connCaps: map[string]int{}}
	r.root = aggd.NewServer(aggd.ServerConfig{})
	r.admit = &admitLog{srv: r.root}
	rootTier, err := serve(&tap{h: r.root.Handler(), name: "aggd.root.handle", rec: rec, admit: r.admit})
	if err != nil {
		return nil, err
	}
	r.tiers = append(r.tiers, rootTier)
	r.rootURL = rootTier.url
	firstHosts := 1
	if cfg.leaves > 0 {
		firstHosts = cfg.leaves
		var capRoot int
		r.fwdTr, capRoot = newTransport(1)
		r.connCaps["forward->root"] = capRoot
		r.fwdRT = newTimingRT(r.fwdTr, "aggd.forward.post", rec, captureBodies)
		for i := 0; i < cfg.leaves; i++ {
			leaf := aggd.NewServer(aggd.ServerConfig{Forward: &aggd.ForwardConfig{
				Upstream: r.rootURL,
				LeafID:   fmt.Sprintf("leaf-%d", i),
				Client:   &http.Client{Transport: r.fwdRT, Timeout: 5 * time.Second},
			}})
			t, err := serve(&tap{h: leaf.Handler(), name: "aggd.leaf.handle", rec: rec})
			if err != nil {
				r.close()
				return nil, err
			}
			r.leaves = append(r.leaves, leaf)
			r.tiers = append(r.tiers, t)
			r.leafURLs = append(r.leafURLs, t.url)
		}
		if r.router, err = aggd.NewRouter(r.leafURLs); err != nil {
			r.close()
			return nil, err
		}
	}
	var capFirst, capRead int
	r.agentTr, capFirst = newTransport(firstHosts)
	r.connCaps["agents->first tier"] = capFirst * firstHosts
	r.agentRT = newTimingRT(r.agentTr, "aggd.agent.post", rec, captureBodies)
	r.readTr, capRead = newTransport(1)
	r.connCaps["reader->root"] = capRead
	r.readClient = &http.Client{Transport: newTimingRT(r.readTr, "reader.get", rec, 0), Timeout: 10 * time.Second}
	return r, nil
}

// close stops every listener and idle connection (agents and leaves must
// already be closed).
func (r *rig) close() {
	for _, l := range r.leaves {
		_ = l.Close() // idempotent; finish() already closed and audited it
	}
	for i := len(r.tiers) - 1; i >= 0; i-- {
		if err := r.tiers[i].stop(); err != nil {
			r.fail("stop listener: %v", err)
		}
	}
	for _, tr := range []*http.Transport{r.agentTr, r.fwdTr, r.readTr} {
		if tr != nil {
			tr.CloseIdleConnections()
		}
	}
}

func (r *rig) fail(format string, args ...any) {
	r.mu.Lock()
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

// firstTier returns the servers agents post to.
func (r *rig) firstTier() []*aggd.Server {
	if len(r.leaves) > 0 {
		return r.leaves
	}
	return []*aggd.Server{r.root}
}

// admitJob registers a job's streams; its agents start on first publish.
func (r *rig) admitJob(j *job) {
	j.left = len(j.streams)
	r.jobs = append(r.jobs, j)
	r.streams = append(r.streams, j.streams...)
	r.live = append(r.live, j)
}

func (r *rig) nextJob() *job {
	if r.pending != nil {
		j := r.pending
		r.pending = nil
		return j
	}
	return r.feed()
}

func (r *rig) startAgent(s *stream) error {
	urls := []string{r.rootURL}
	if r.router != nil {
		urls = r.router.Order(s.node, s.rt.rank)
	}
	a, err := aggd.NewAgent(aggd.AgentConfig{
		URLs: urls, Job: s.job.id, Node: s.node, Rank: s.rt.rank, RingCap: agentRingCap,
		Client: &http.Client{Transport: r.agentRT, Timeout: 5 * time.Second},
	})
	if err != nil {
		return fmt.Errorf("agent %s/%s/%d: %w", s.job.id, s.node, s.rt.rank, err)
	}
	a.Attach(&s.es)
	s.agent = a
	return nil
}

// publish offers a stream's next event. The stream's job ends (snapshots
// pushed, agents closed, in the background) once its last stream runs dry.
func (r *rig) publish(s *stream) {
	if s.agent == nil {
		if err := r.startAgent(s); err != nil {
			r.fail("%v", err)
			return
		}
	}
	ev, t := s.at(s.pos)
	s.pos++
	s.es.Publish(s.pl.shifted(ev, t))
	r.gen.published++
	if s.exhausted() {
		s.job.left--
		if s.job.left == 0 {
			r.endJob(s.job)
		}
	}
}

func (r *rig) endJob(j *job) {
	for i, lj := range r.live {
		if lj == j {
			r.live = append(r.live[:i], r.live[i+1:]...)
			break
		}
	}
	r.jobsWG.Add(1)
	go func() {
		defer r.jobsWG.Done()
		var sum ledger
		for _, s := range j.streams {
			if err := s.agent.PushSnapshot(s.rt.snap, s.rt.commRow); err != nil {
				r.fail("job %s rank %d: push snapshot: %v", j.id, s.rt.rank, err)
			}
		}
		for _, s := range j.streams {
			if err := s.agent.Close(); err != nil {
				r.fail("job %s rank %d: close agent: %v", j.id, s.rt.rank, err)
			}
			sum.addAgent(s.agent.Stats(), s.es.Published())
			// The job is over: detach the agent from its stream so the
			// ring can be collected.
			s.es.Close()
			s.agent = nil
		}
		r.mu.Lock()
		r.retired.add(sum)
		r.ended = append(r.ended, j)
		r.mu.Unlock()
	}()
}

// streamHeap orders streams by the schedule time of their next event.
type streamHeap struct {
	s []*stream
	t []float64
}

func (h *streamHeap) Len() int           { return len(h.s) }
func (h *streamHeap) Less(i, j int) bool { return h.t[i] < h.t[j] }
func (h *streamHeap) Swap(i, j int) {
	h.s[i], h.s[j] = h.s[j], h.s[i]
	h.t[i], h.t[j] = h.t[j], h.t[i]
}
func (h *streamHeap) Push(x any) {
	s := x.(*stream)
	h.s = append(h.s, s)
	h.t = append(h.t, s.schedTime())
}
func (h *streamHeap) Pop() any {
	n := len(h.s) - 1
	s := h.s[n]
	h.s, h.t = h.s[:n], h.t[:n]
	return s
}

// buildSchedule places the next n offered events in trace-time order
// across every live stream, admitting jobs as their arrival comes up, and
// returns the stream index of each. The open loop then offers event i at
// i/rate: a fixed rate that keeps each stream's bursts and the jobs'
// overlap in the order the traces give them.
func (r *rig) buildSchedule(n int) ([]int32, error) {
	index := map[*stream]int32{}
	for i, s := range r.streams {
		index[s] = int32(i)
	}
	h := &streamHeap{}
	for _, s := range r.streams {
		if s.limit < 0 || s.schedPos < s.limit {
			heap.Push(h, s)
		}
	}
	ids := make([]int32, 0, n)
	for len(ids) < n {
		if r.pending == nil {
			r.pending = r.feed()
		}
		if r.pending != nil && (h.Len() == 0 || r.pending.arrival <= h.t[0]) {
			j := r.pending
			r.pending = nil
			first := len(r.streams)
			r.admitJob(j)
			for i, s := range j.streams {
				index[s] = int32(first + i)
				heap.Push(h, s)
			}
			continue
		}
		if h.Len() == 0 {
			return nil, fmt.Errorf("schedule ran dry after %d of %d events", len(ids), n)
		}
		s := h.s[0]
		ids = append(ids, index[s])
		s.schedPos++
		if s.limit >= 0 && s.schedPos >= s.limit {
			heap.Pop(h)
		} else {
			h.t[0] = s.schedTime()
			heap.Fix(h, 0)
		}
	}
	return ids, nil
}

// scheduleHash identifies the offered event sequence: the templates'
// events, every stream's identity and time mapping, and the order.
func (r *rig) scheduleHash(ids []int32) string {
	h := sha256.New()
	seen := map[*template]bool{}
	for _, j := range r.jobs {
		if !seen[j.tp] {
			seen[j.tp] = true
			_, _ = h.Write(templateHash(j.tp)) // hash.Hash Write never fails
		}
	}
	for _, s := range r.streams {
		_, _ = fmt.Fprintf(h, "%s/%s/%s/%d/%d/%g/%g;", s.job.id, s.job.tp.name, s.node, s.rt.rank, s.limit, s.start, s.speed)
	}
	var b [4]byte
	for _, id := range ids {
		binary.LittleEndian.PutUint32(b[:], uint32(id))
		_, _ = h.Write(b[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// openLoop offers the scheduled events at the configured rate and returns
// the freshness checkpoints, one every spacing of the due schedule.
func (r *rig) openLoop(ids []int32, start time.Time, spacing time.Duration) []checkpoint {
	rate := r.cfg.rate
	n := len(ids)
	base := r.root.Stats().IngestEvents
	var cps []checkpoint
	step := int64(spacing)
	for t := step; ; t += step {
		need := int(float64(t)/1e9*rate) + 1
		if need > n {
			break
		}
		cps = append(cps, checkpoint{dueNS: t, need: base + uint64(need)})
	}
	i := 0
	for i < n {
		el := time.Since(start)
		due := int(el.Seconds()*rate) + 1
		if due > n {
			due = n
		}
		if due <= i {
			time.Sleep(time.Duration(float64(i)/rate*1e9) - el)
			continue
		}
		r.gen.late.add(el - time.Duration(float64(i)/rate*1e9))
		wake, wakeStart := int32(0), r.rec.now()
		if r.rec != nil {
			wake = r.rec.add("gen.wake", 0, 0, wakeStart, 0)
		}
		for ; i < due; i++ {
			s := r.streams[ids[i]]
			if r.rec != nil && i%publishSampleEvery == 0 {
				t0 := r.rec.now()
				r.publish(s)
				t1 := r.rec.now()
				r.rec.add("export.publish", 0, wake, t0, t1)
				r.gen.pubNS += t1 - t0
				r.gen.pubN++
				continue
			}
			r.publish(s)
		}
		if wake > 0 {
			r.rec.spans[wake-1].end = r.rec.now()
		}
	}
	return cps
}

// publishSampleEvery: a traced run times one publish in this many.
const publishSampleEvery = 64

// waitAdmitted polls until the root has admitted want events in total,
// or timeout passes.
func (r *rig) waitAdmitted(want uint64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		if r.root.Stats().IngestEvents >= want {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// backlog is an agent's unsent events: enqueued, neither shipped nor lost.
func backlog(a *aggd.Agent) uint64 {
	st := a.Stats()
	return st.Enqueued - st.SentEvents - st.RingDrops - st.SendDrops
}

// closedLoop feeds every live stream while its agent's unsent backlog is
// under one batch, for d, keeping cfg.liveJobs jobs live when the feed
// has more. It returns the events the root admitted per second of the
// process's CPU time, the pipeline's capacity per core at saturation, and
// per second of wall time. The wall-clock rate on a small shared host
// moved ±25% from run to run with how much CPU the process was given; the
// rate per CPU-second moved less.
func (r *rig) closedLoop(d time.Duration) (perCPU, perWall float64) {
	start, cpu0 := time.Now(), cpuNS()
	adm0 := r.root.Stats().IngestEvents
	for time.Since(start) < d {
		for r.cfg.liveJobs > 0 && len(r.live) < r.cfg.liveJobs {
			j := r.nextJob()
			if j == nil {
				break
			}
			r.admitJob(j)
		}
		progressed := false
		for _, j := range append([]*job(nil), r.live...) {
			for _, s := range j.streams {
				if s.exhausted() {
					continue
				}
				room := defaultBatch
				if s.agent != nil {
					if b := backlog(s.agent); b < defaultBatch {
						room = defaultBatch - int(b)
					} else {
						continue
					}
				}
				for k := 0; k < room && !s.exhausted(); k++ {
					r.publish(s)
				}
				progressed = true
			}
		}
		if !progressed {
			time.Sleep(200 * time.Microsecond)
		}
	}
	n := float64(r.root.Stats().IngestEvents - adm0)
	return n / (float64(cpuNS()-cpu0) / 1e9), n / time.Since(start).Seconds()
}

// finish closes the agents of jobs still running (they never end, so
// push no snapshots), waits for ended jobs to finish shutting down, closes
// the leaves so their forwarders flush, and totals the books.
func (r *rig) finish() ledger {
	for _, j := range r.live {
		for _, s := range j.streams {
			if s.agent != nil {
				if err := s.agent.Close(); err != nil {
					r.fail("close agent: %v", err)
				}
			}
		}
	}
	r.jobsWG.Wait()
	for _, l := range r.leaves {
		if err := l.Close(); err != nil {
			r.fail("close leaf: %v", err)
		}
	}
	r.mu.Lock()
	l := r.retired
	r.mu.Unlock()
	for _, j := range r.live {
		for _, s := range j.streams {
			if s.agent != nil {
				l.addAgent(s.agent.Stats(), s.es.Published())
			}
		}
	}
	r.live = nil
	l.tree = len(r.leaves) > 0
	for _, lf := range r.leaves {
		st := lf.Stats()
		l.firstAdmitted += st.IngestEvents
		fs := lf.Forwarder().Stats()
		l.fwdEnqueued += fs.EnqueuedEvents
		l.fwdAcked += fs.AckedEvents
		l.fwdDropped += fs.DroppedEvents
		l.fwdPending += fs.PendingEvents
	}
	rs := r.root.Stats()
	if !l.tree {
		l.firstAdmitted = rs.IngestEvents
	}
	l.rootAdmitted = rs.IngestEvents
	l.rollupSkipped = rs.RollupSkippedEvents
	census, err := r.census()
	if err != nil {
		r.fail("census: %v", err)
	}
	l.census = census
	return l
}

// census sums the root's /api/jobs event counts.
func (r *rig) census() (uint64, error) {
	var total uint64
	err := get(r.readClient, r.rootURL+"/api/jobs", func(body []byte) error {
		var jobs []aggd.JobInfo
		if err := json.Unmarshal(body, &jobs); err != nil {
			return err
		}
		for _, j := range jobs {
			total += j.Events
		}
		return nil
	})
	return total, err
}

// pollFwdPending samples the leaves' forwarder buffers until stop closes.
func (r *rig) pollFwdPending(stop <-chan struct{}, done chan<- uint64) {
	var peak uint64
	t := time.NewTicker(10 * time.Millisecond)
	defer t.Stop()
	for {
		for _, l := range r.leaves {
			if p := l.Forwarder().Stats().PendingEvents; p > peak {
				peak = p
			}
		}
		select {
		case <-stop:
			done <- peak
			return
		case <-t.C:
		}
	}
}
