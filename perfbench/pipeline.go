package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"zerosum/internal/aggd"
)

// httpTier is one loopback HTTP listener serving a handler.
type httpTier struct {
	url  string
	srv  *http.Server
	done chan error
}

func serve(h http.Handler) (*httpTier, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	t := &httpTier{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan error, 1)}
	go func() { t.done <- t.srv.Serve(ln) }()
	return t, nil
}

// stop shuts the listener down, waits for in-flight handlers and for the
// serving goroutine to return.
func (t *httpTier) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := t.srv.Shutdown(ctx)
	if serr := <-t.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// nproc is the machine's CPU count; the benchmark never runs more OS
// threads of Go code, nor more connections per tier, than this.
var nproc = runtime.NumCPU()

// newTransport builds a shared client transport capped at perHost
// connections to each of hosts endpoints, so a tier never sees more than
// nproc connections however many agent streams share the transport.
func newTransport(hosts int) (*http.Transport, int) {
	perHost := max(1, nproc/hosts)
	return &http.Transport{
		MaxConnsPerHost:     perHost,
		MaxIdleConnsPerHost: perHost,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}, perHost
}

// timingRT wraps a transport and measures every request that crosses it:
// request-body bytes, round-trip time and, when tracing, a span whose ID
// rides to the server in spanHeader. It can also keep copies of the first
// request bodies for the wire post-pass.
type timingRT struct {
	base    http.RoundTripper
	name    string
	rec     *spanRec
	bytes   atomic.Uint64
	capture int

	mu     sync.Mutex
	lat    timing   //zerosum:guardedby mu
	bodies [][]byte //zerosum:guardedby mu
}

func newTimingRT(base http.RoundTripper, name string, rec *spanRec, capture int) *timingRT {
	return &timingRT{base: base, name: name, rec: rec, capture: capture, lat: timing{name: name}}
}

func (t *timingRT) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.ContentLength > 0 {
		t.bytes.Add(uint64(req.ContentLength))
	}
	var id int32
	var reqID uint64
	if t.rec != nil {
		reqID = t.rec.newReq()
		// Reserve the span now so the server side can name it as parent;
		// its interval is filled in when the round trip ends.
		id = t.rec.add(t.name, reqID, 0, t.rec.now(), 0)
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.FormatInt(int64(id), 10)+"/"+strconv.FormatUint(reqID, 10))
		t.keepBody(req)
	}
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	d := time.Since(start)
	if id > 0 {
		t.rec.spans[id-1].end = t.rec.now()
	}
	t.mu.Lock()
	t.lat.add(d)
	t.mu.Unlock()
	return resp, err
}

func (t *timingRT) keepBody(req *http.Request) {
	if req.GetBody == nil || req.Method != http.MethodPost {
		return
	}
	t.mu.Lock()
	full := len(t.bodies) >= t.capture
	t.mu.Unlock()
	if full {
		return
	}
	rc, err := req.GetBody()
	if err != nil {
		return
	}
	b, err := io.ReadAll(rc)
	_ = rc.Close() // an in-memory copy of the body: nothing to flush
	if err != nil {
		return
	}
	t.mu.Lock()
	if len(t.bodies) < t.capture {
		t.bodies = append(t.bodies, b)
	}
	t.mu.Unlock()
}

func (t *timingRT) latencies() timing {
	t.mu.Lock()
	defer t.mu.Unlock()
	return timing{name: t.lat.name, ms: append([]float64(nil), t.lat.ms...)}
}

// tap wraps a server's handler: it records a server-side span (child of
// the client span named in spanHeader) and, after each ingest request,
// lets the admitted-count log observe the server's counter.
type tap struct {
	h     http.Handler
	name  string
	rec   *spanRec
	admit *admitLog
}

func (tp *tap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := tp.rec.now()
	tp.h.ServeHTTP(w, r)
	if tp.admit != nil && r.URL.Path == "/api/ingest" {
		tp.admit.note()
	}
	if tp.rec != nil {
		parent, reqID := parseSpanHeader(r.Header.Get(spanHeader))
		tp.rec.add(tp.name, reqID, parent, start, tp.rec.now())
	}
}

func parseSpanHeader(v string) (int32, uint64) {
	i := strings.IndexByte(v, '/')
	if i < 0 {
		return 0, 0
	}
	id, err1 := strconv.ParseInt(v[:i], 10, 32)
	req, err2 := strconv.ParseUint(v[i+1:], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0
	}
	return int32(id), req
}

// admitLog is the root's admitted-event timeline: after every ingest
// request it appends (now, Stats().IngestEvents). Reading the counter and
// the clock under one lock keeps the timeline's counts non-decreasing.
type admitLog struct {
	srv   *aggd.Server
	mu    sync.Mutex
	epoch time.Time    //zerosum:guardedby mu
	on    bool         //zerosum:guardedby mu
	pts   []admitPoint //zerosum:guardedby mu
}

func (l *admitLog) note() {
	l.mu.Lock()
	if l.on {
		l.pts = append(l.pts, admitPoint{tNS: int64(time.Since(l.epoch)), count: l.srv.Stats().IngestEvents})
	}
	l.mu.Unlock()
}

// start begins a timeline at epoch, seeded with the counter's value then.
func (l *admitLog) start(epoch time.Time) {
	l.mu.Lock()
	l.epoch, l.on = epoch, true
	l.pts = append(l.pts[:0], admitPoint{tNS: 0, count: l.srv.Stats().IngestEvents})
	l.mu.Unlock()
}

// stop ends the timeline and returns it.
func (l *admitLog) stop() []admitPoint {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.on = false
	return append([]admitPoint(nil), l.pts...)
}
