package main

import (
	"bytes"
	"compress/gzip"
	"io"
	"time"

	"zerosum/internal/aggd"
	"zerosum/internal/export"
	"zerosum/internal/tsdb"
)

// ingestLayers fills the traced run's per-layer metrics for the pipeline
// layers, from the counters the modules already keep, the timing
// round-trippers, and post-passes over captured request bodies.
func ingestLayers(r *rig, out *outcome, l ledger, ingestSpans []time.Duration, admA, malA uint64) {
	m := out.layers
	late := append([]float64(nil), r.gen.late.ms...)
	m["gen.late_ms_p99"], _ = percentile(late, 0.99)
	m["gen.events"] = float64(r.gen.published)
	if r.gen.pubN > 0 {
		m["export.publish_ns"] = float64(r.gen.pubNS) / float64(r.gen.pubN)
	}

	post := r.agentRT.latencies()
	m["aggd.agent.post_ms_p50"], _ = percentile(post.ms, 0.5)
	m["aggd.agent.post_ms_p99"] = reportP99(post)
	if l.sentBatches > 0 {
		m["aggd.agent.events_per_batch"] = float64(l.sent) / float64(l.sentBatches)
	}
	m["aggd.agent.ring_drops"] = float64(l.ringDrops)
	m["aggd.agent.send_drops"] = float64(l.sendDrops)
	m["aggd.agent.retries"] = float64(l.retries)
	if l.sent > 0 {
		m["aggd.wire.body_bytes_per_event"] = float64(r.agentRT.bytes.Load()) / float64(l.sent)
	}
	r.agentRT.mu.Lock()
	bodies := r.agentRT.bodies
	r.agentRT.mu.Unlock()
	wirePass(bodies, m)

	ing := timing{name: "aggd.server.ingest"}
	for _, d := range ingestSpans {
		ing.add(d)
	}
	m["aggd.server.ingest_us_p50"], _ = percentile(append([]float64(nil), ing.ms...), 0.5)
	m["aggd.server.ingest_us_p50"] *= 1000
	m["aggd.server.ingest_us_p99"] = 1000 * reportP99(ing)
	for _, s := range append(r.firstTier(), r.root) {
		st := s.Stats()
		m["aggd.server.dup_batches"] += float64(st.DupBatches + st.DupRollups)
		m["aggd.server.lost_batches"] += float64(st.LostBatches + st.LostRollups)
		m["aggd.server.ingest_errors"] += float64(st.IngestErrors)
		m["aggd.server.corrupt_frames"] += float64(st.CorruptFrames)
		if len(r.leaves) == 0 {
			break // flat: the first tier is the root
		}
	}

	var samples, sbytes uint64
	for _, job := range r.root.TSDB().Jobs() {
		js := r.root.TSDB().JobStats(job)
		samples += js.Samples
		sbytes += js.Bytes
		m["tsdb.series"] += float64(js.Series)
		m["tsdb.sealed_chunks"] += float64(js.SealedChunks)
	}
	if samples > 0 {
		m["tsdb.bytes_per_sample"] = float64(sbytes) / float64(samples)
	}

	if r.fwdRT != nil {
		fp := r.fwdRT.latencies()
		m["aggd.forward.post_ms_p50"], _ = percentile(fp.ms, 0.5)
		m["aggd.forward.post_ms_p99"] = reportP99(fp)
		var rollups uint64
		for _, lf := range r.leaves {
			rollups += lf.Forwarder().Stats().SentRollups
		}
		if rollups > 0 {
			m["aggd.forward.events_per_rollup"] = float64(l.fwdAcked) / float64(rollups)
		}
		m["aggd.forward.pending_max"] = float64(r.fwdPeak)
		m["aggd.forward.dropped"] = float64(l.fwdDropped)
		r.fwdRT.mu.Lock()
		fb := r.fwdRT.bodies
		r.fwdRT.mu.Unlock()
		rollupPass(fb, m)
	}

	m["aggd.http.metrics_ms"], m["aggd.http.metrics_bytes"] = timeGets(r, "/metrics", 5)
	m["aggd.http.jobs_ms"], _ = timeGets(r, "/api/jobs", 5)
	if admA > 0 {
		m["go.allocs_per_event"] = float64(malA) / float64(admA)
	}
	m["go.gc_cpu_frac"] = gcCPUFraction()
}

// reportP99 returns a timing's p99, or its maximum when it has too few
// samples for one (the count is printed either way).
func reportP99(t timing) float64 {
	s := append([]float64(nil), t.ms...)
	v, ok := percentile(s, 0.99)
	if !ok && len(s) > 0 {
		v = s[len(s)-1]
		note("%s: %d samples, too few for a p99; reporting the maximum", t.name, len(s))
	}
	return v
}

// timeGets fetches path from the root n times and returns the median
// milliseconds and the last body's size.
func timeGets(r *rig, path string, n int) (ms, size float64) {
	var t []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		err := get(r.readClient, r.rootURL+path, func(b []byte) error {
			size = float64(len(b))
			return nil
		})
		if err != nil {
			r.fail("GET %s: %v", path, err)
			return 0, 0
		}
		t = append(t, float64(time.Since(start))/1e6)
	}
	return median(t), size
}

// wirePass replays captured agent request bodies through each wire stage
// on its own: gunzip, frame scan + decode, re-encode, gzip. The decoded
// batches are also appended into a scratch TSDB store, series resolved
// the way the aggregator maps each event kind.
func wirePass(bodies [][]byte, m map[string]float64) {
	var gunzipNS, decodeNS, encodeNS, gzipNS, appendNS int64
	var events, frameBytes, gzBytes, samples int
	var bb aggd.BatchBuf
	var frame []byte
	var gzBuf bytes.Buffer
	zw := gzip.NewWriter(&gzBuf)
	store := tsdb.NewStore(tsdb.Options{})
	series := map[tsdb.SeriesKey]*tsdb.Series{}
	for _, body := range bodies {
		t0 := time.Now()
		zr, err := gzip.NewReader(bytes.NewReader(body))
		if err != nil {
			continue
		}
		raw, err := io.ReadAll(zr)
		if err != nil {
			continue
		}
		t1 := time.Now()
		sc := aggd.NewFrameScanner(bytes.NewReader(raw))
		kind, payload, err := sc.Next()
		if err != nil || kind != aggd.FrameBatch {
			continue // snapshot shipments carry no events
		}
		b, err := aggd.DecodeBatchPayloadVersionInto(payload, sc.Version(), &bb)
		if err != nil {
			continue
		}
		t2 := time.Now()
		frame, err = aggd.AppendBatchFrame(frame[:0], b)
		if err != nil {
			continue
		}
		t3 := time.Now()
		gzBuf.Reset()
		zw.Reset(&gzBuf)
		if _, err := zw.Write(frame); err != nil || zw.Close() != nil {
			continue
		}
		t4 := time.Now()
		samples += appendBatch(store, series, b)
		t5 := time.Now()
		gunzipNS += t1.Sub(t0).Nanoseconds()
		decodeNS += t2.Sub(t1).Nanoseconds()
		encodeNS += t3.Sub(t2).Nanoseconds()
		gzipNS += t4.Sub(t3).Nanoseconds()
		appendNS += t5.Sub(t4).Nanoseconds()
		events += len(b.Events)
		frameBytes += len(frame)
		gzBytes += gzBuf.Len()
	}
	if events == 0 {
		return
	}
	e := float64(events)
	m["aggd.wire.gunzip_ns_per_event"] = float64(gunzipNS) / e
	m["aggd.wire.decode_ns_per_event"] = float64(decodeNS) / e
	m["aggd.wire.encode_ns_per_event"] = float64(encodeNS) / e
	m["aggd.wire.gzip_ns_per_event"] = float64(gzipNS) / e
	m["aggd.wire.bytes_per_event"] = float64(frameBytes) / e
	m["aggd.wire.gzip_ratio"] = float64(frameBytes) / float64(gzBytes)
	if samples > 0 {
		m["tsdb.append_ns_per_sample"] = float64(appendNS) / float64(samples)
	}
}

// appendBatch appends one batch's samples the way the aggregator does
// (per kind: LWP 5 series, HWT 3, GPU 1, memory 2, I/O 2) and returns the
// sample count.
func appendBatch(st *tsdb.Store, series map[tsdb.SeriesKey]*tsdb.Series, b *aggd.Batch) int {
	ba := st.BeginBatch(b.Job, b.Node, b.Rank)
	n := 0
	add := func(tid int, metric string, t int64, v float64) {
		k := tsdb.SeriesKey{Node: b.Node, Rank: b.Rank, TID: tid, Metric: metric}
		s := series[k]
		if s == nil {
			s = ba.Resolve(k)
			series[k] = s
		}
		ba.Append(s, t, v)
		n++
	}
	b2f := func(v bool) float64 {
		if v {
			return 1
		}
		return 0
	}
	for i := range b.Events {
		ev := &b.Events[i]
		t := tsdb.TimeToNanos(ev.TimeSec)
		switch ev.Kind {
		case export.EventLWP:
			add(ev.LWP.TID, "lwp.user_pct", t, ev.LWP.UserPct)
			add(ev.LWP.TID, "lwp.sys_pct", t, ev.LWP.SysPct)
			add(ev.LWP.TID, "lwp.vctx", t, float64(ev.LWP.VCtx))
			add(ev.LWP.TID, "lwp.nvctx", t, float64(ev.LWP.NVCtx))
			add(ev.LWP.TID, "lwp.stalled", t, b2f(ev.LWP.Stalled))
		case export.EventHWT:
			add(ev.HWT.CPU, "hwt.idle_pct", t, ev.HWT.IdlePct)
			add(ev.HWT.CPU, "hwt.sys_pct", t, ev.HWT.SysPct)
			add(ev.HWT.CPU, "hwt.user_pct", t, ev.HWT.UserPct)
		case export.EventGPU:
			metric := "gpu.busy_pct"
			if ev.GPU.Metric != "Device Busy %" {
				metric = "gpu." + ev.GPU.Metric
			}
			add(ev.GPU.GPU, metric, t, ev.GPU.Value)
		case export.EventMem:
			add(0, "mem.free_kb", t, float64(ev.Mem.FreeKB))
			add(0, "mem.rss_kb", t, float64(ev.Mem.ProcRSSKB))
		case export.EventIO:
			add(0, "io.read_bytes", t, float64(ev.IO.ReadBytes))
			add(0, "io.write_bytes", t, float64(ev.IO.WriteBytes))
		}
	}
	ba.End()
	return n
}

// rollupPass decodes captured forwarder bodies (gunzip, then the rollup
// payload) and reports decode nanoseconds per embedded event.
func rollupPass(bodies [][]byte, m map[string]float64) {
	var ns int64
	var events int
	for _, body := range bodies {
		zr, err := gzip.NewReader(bytes.NewReader(body))
		if err != nil {
			continue
		}
		raw, err := io.ReadAll(zr)
		if err != nil {
			continue
		}
		sc := aggd.NewFrameScanner(bytes.NewReader(raw))
		kind, payload, err := sc.Next()
		if err != nil || kind != aggd.FrameRollup {
			continue
		}
		t0 := time.Now()
		ru, err := aggd.DecodeRollupPayload(payload, sc.Version())
		d := time.Since(t0)
		if err != nil {
			continue
		}
		ns += d.Nanoseconds()
		for _, b := range ru.Batches {
			events += len(b.Events)
		}
	}
	if events > 0 {
		m["aggd.forward.rollup_decode_ns_per_event"] = float64(ns) / float64(events)
	}
}
