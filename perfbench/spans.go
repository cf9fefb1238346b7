package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// spanHeader carries the client-side span ID of a request to the server
// middleware, so the server span names its parent.
const spanHeader = "X-Perfbench-Span"

// span is one recorded interval around a call into a layer. IDs are
// 1-based indices into the recorder; 0 means "no parent".
type span struct {
	name   string
	reqID  uint64 // batch, rollup, query or tick this span served
	parent int32
	start  int64 // ns since the recorder's epoch
	end    int64
}

// spanRec keeps spans in memory until the benchmark exits. A nil *spanRec
// records nothing, so the untraced run pays one nil check per call site.
type spanRec struct {
	epoch   time.Time
	spans   []span
	next    atomic.Int64
	dropped atomic.Int64
	reqSeq  atomic.Uint64
}

func newSpanRec(capacity int) *spanRec {
	return &spanRec{epoch: time.Now(), spans: make([]span, capacity)}
}

func (r *spanRec) now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.epoch))
}

// newReq hands out a request ID for a batch, rollup, query or tick.
func (r *spanRec) newReq() uint64 {
	if r == nil {
		return 0
	}
	return r.reqSeq.Add(1)
}

// add records one span and returns its ID (0 when the recorder is nil or
// full). Concurrent callers each own the slot they reserved.
func (r *spanRec) add(name string, reqID uint64, parent int32, start, end int64) int32 {
	if r == nil {
		return 0
	}
	i := r.next.Add(1) - 1
	if i >= int64(len(r.spans)) {
		r.dropped.Add(1)
		return 0
	}
	r.spans[i] = span{name: name, reqID: reqID, parent: parent, start: start, end: end}
	return int32(i + 1)
}

// recorded returns the spans written so far. Call it only after every
// recording goroutine has stopped.
func (r *spanRec) recorded() []span {
	n := r.next.Load()
	if n > int64(len(r.spans)) {
		n = int64(len(r.spans))
	}
	return r.spans[:n]
}

// selfTimes derives each span name's self time: the span's duration minus
// the part of it covered by its children's intervals (overlapping children
// are merged, and child time outside the parent is ignored).
func selfTimes(spans []span) map[string]time.Duration {
	kids := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.parent > 0 {
			kids[s.parent] = append(kids[s.parent], [2]int64{s.start, s.end})
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		covered := int64(0)
		iv := kids[int32(i+1)]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		curS, curE := int64(0), int64(-1)
		flush := func() {
			if curE > curS {
				covered += curE - curS
			}
		}
		for _, c := range iv {
			lo, hi := max(c[0], s.start), min(c[1], s.end)
			if hi <= lo {
				continue
			}
			if lo > curE {
				flush()
				curS, curE = lo, hi
			} else if hi > curE {
				curE = hi
			}
		}
		flush()
		out[s.name] += time.Duration(s.end - s.start - covered)
	}
	return out
}

// writeSpans writes one JSON object per span to path.
func writeSpans(path string, spans []span) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	for i, s := range spans {
		if err := writeSpanLine(w, int32(i+1), s); err != nil {
			return err
		}
	}
	return w.Flush()
}

func writeSpanLine(w io.Writer, id int32, s span) error {
	_, err := fmt.Fprintf(w, "{\"id\":%d,\"parent\":%d,\"name\":%s,\"req\":%d,\"start_ns\":%d,\"end_ns\":%d}\n",
		id, s.parent, strconv.Quote(s.name), s.reqID, s.start, s.end)
	return err
}
