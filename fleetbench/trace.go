package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/pkg/resultstore"
)

// The tracer records spans around the calls into each layer's public
// surface, from outside the program: both tiers' http.Handlers, the
// scheduler's http.RoundTripper, and the resultstore.Stores.  Spans are
// kept in memory and read when the traced phase ends.
//
// Links travel the way a request does.  A handler span goes into the
// request context; the scheduler carries that context through its
// single-flight group (context.WithoutCancel keeps values) to the store
// and transport wrappers; the transport stamps the hop's span on a
// header of its cloned request, and simd's handler wrapper reads it.
// A request that joins another caller's in-flight execution
// (COALESCED) links to nothing: the store and hop spans of the shared
// execution belong to the first caller, and the joiner's handler span
// has no children, so its whole wait counts as self time.

// traceHeader carries "<request id>/<span id>" across the hop.
const traceHeader = "X-Fleetbench-Span"

type span struct {
	id, parent, req uint64
	name            string
	start, end      time.Duration // since the tracer's epoch
	note            string        // X-Cache of a handler span, target host of a hop
	status          int
}

func (s span) dur() time.Duration { return s.end - s.start }

// spanRef names a span and its request; it rides in contexts and on
// the trace header.
type spanRef struct{ req, id uint64 }

type spanKey struct{}

func (r spanRef) String() string { return fmt.Sprintf("%d/%d", r.req, r.id) }

func parseRef(s string) (spanRef, bool) {
	a, b, ok := strings.Cut(s, "/")
	if !ok {
		return spanRef{}, false
	}
	req, err1 := strconv.ParseUint(a, 10, 64)
	id, err2 := strconv.ParseUint(b, 10, 64)
	return spanRef{req, id}, err1 == nil && err2 == nil
}

// tracer is the in-memory span recorder.  A nil *tracer wraps nothing:
// its wrapper constructors return their argument unchanged.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent (a zero parent id starts a new
// request).
func (t *tracer) begin(parent spanRef, name string) span {
	if parent.req == 0 {
		parent.req = t.ids.Add(1)
	}
	return span{id: t.ids.Add(1), parent: parent.id, req: parent.req, name: name, start: time.Since(t.epoch)}
}

func (t *tracer) finish(s span, note string, status int) {
	s.end = time.Since(t.epoch)
	s.note, s.status = note, status
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// recorded returns the spans finished so far.
func (t *tracer) recorded() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// child opens a span under the one carried by ctx; ok is false (and
// nothing is recorded) when tracing is off or ctx carries no span.
func (t *tracer) child(ctx context.Context, name string) (span, bool) {
	parent, ok := ctx.Value(spanKey{}).(spanRef)
	if !ok || !t.on.Load() {
		return span{}, false
	}
	return t.begin(parent, name), true
}

// handler wraps an API handler: every /v1/ request gets a span, linked
// to the hop that sent it when the trace header is present.
func (t *tracer) handler(name string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() || !strings.HasPrefix(r.URL.Path, "/v1/") {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := parseRef(r.Header.Get(traceHeader))
		s := t.begin(parent, name)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		ctx := context.WithValue(r.Context(), spanKey{}, spanRef{s.req, s.id})
		h.ServeHTTP(rec, r.WithContext(ctx))
		t.finish(s, rec.Header().Get("X-Cache"), rec.status)
	})
}

// statusRecorder captures a handler's status code.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush keeps the streaming endpoints streaming through the wrapper.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// transport wraps the scheduler's client transport: each backend call
// is a "scheduler.hop" span, from sending the request until the
// scheduler closes the response body.
func (t *tracer) transport(base http.RoundTripper) http.RoundTripper {
	if t == nil {
		return base
	}
	return &tracedTransport{t: t, base: base}
}

type tracedTransport struct {
	t    *tracer
	base http.RoundTripper
}

func (tt *tracedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	s, ok := tt.t.child(r.Context(), "scheduler.hop")
	if !ok {
		return tt.base.RoundTrip(r)
	}
	r = r.Clone(r.Context())
	r.Header.Set(traceHeader, spanRef{s.req, s.id}.String())
	resp, err := tt.base.RoundTrip(r)
	if err != nil {
		tt.t.finish(s, r.URL.Host, 0)
		return nil, err
	}
	resp.Body = &finishOnClose{ReadCloser: resp.Body, finish: func() { tt.t.finish(s, r.URL.Host, resp.StatusCode) }}
	return resp, nil
}

// CloseIdleConnections forwards to the wrapped transport, so
// http.Client.CloseIdleConnections still reaches it.
func (tt *tracedTransport) CloseIdleConnections() {
	if c, ok := tt.base.(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
}

type finishOnClose struct {
	io.ReadCloser
	once   sync.Once
	finish func()
}

func (b *finishOnClose) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.finish)
	return err
}

// store wraps a response store: Get and Set become
// "resultstore.<tier>.get|set" spans.  The wrapper keeps the wrapped
// store's optional capabilities: Peek stays a stats-invisible Peek (or
// the same counted Get fallback resultstore.Peek would make), and Keys
// enumerates only when the wrapped store can.
func (t *tracer) store(tier string, s resultstore.Store) resultstore.Store {
	if t == nil {
		return s
	}
	return &tracedStore{Store: s, t: t, get: "resultstore." + tier + ".get", set: "resultstore." + tier + ".set"}
}

type tracedStore struct {
	resultstore.Store
	t        *tracer
	get, set string
}

func (s *tracedStore) Get(ctx context.Context, key string) ([]byte, bool, error) {
	sp, ok := s.t.child(ctx, s.get)
	val, hit, err := s.Store.Get(ctx, key)
	if ok {
		note := "miss"
		if hit {
			note = "hit"
		}
		s.t.finish(sp, note, 0)
	}
	return val, hit, err
}

func (s *tracedStore) Set(ctx context.Context, key string, val []byte) error {
	sp, ok := s.t.child(ctx, s.set)
	err := s.Store.Set(ctx, key, val)
	if ok {
		s.t.finish(sp, "", 0)
	}
	return err
}

// Peek implements resultstore.Peeker.
func (s *tracedStore) Peek(ctx context.Context, key string) ([]byte, bool, error) {
	return resultstore.Peek(ctx, s.Store, key)
}

// Keys implements resultstore.Scanner.
func (s *tracedStore) Keys(ctx context.Context, filter func(string) bool) ([]string, error) {
	sc, ok := s.Store.(resultstore.Scanner)
	if !ok {
		return nil, fmt.Errorf("fleetbench: traced store: %w", resultstore.ErrScanUnsupported)
	}
	return sc.Keys(ctx, filter)
}
