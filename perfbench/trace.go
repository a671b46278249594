package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Parent is the ID of
// the span that caused it (0 for a root); Op is the index of the
// benchmark operation it belongs to (-1 for background work such as the
// coordinator's health checks).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// Span names, one per layer boundary the benchmark times from outside.
const (
	spanClient = "client" // benchmark client: request sent to body read
	spanCoord  = "coord"  // cluster.Coordinator.ServeHTTP
	spanSubreq = "subreq" // coordinator to worker round trip, through cluster.Config.Client
	spanServe  = "serve"  // serve.Server.ServeHTTP
)

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span // guarded by mu
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) newID() int64 { return t.ids.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// record times f as a root span of operation op.
func (t *tracer) record(name string, op int64, f func()) time.Duration {
	s := span{ID: t.newID(), Op: op, Name: name, Start: t.now()}
	f()
	s.End = t.now()
	t.add(s)
	return s.dur()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]span(nil), t.spans...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			//ermvet:ignore errdrop the encode error is the one reported; the half-written file is abandoned
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		//ermvet:ignore errdrop the flush error is the one reported; the half-written file is abandoned
		f.Close()
		return err
	}
	return f.Close()
}

// traceSwitch lets the wrappers below be installed when a system is
// built and turned on only for the traced phase of a run. With no
// tracer set they pass calls straight through.
type traceSwitch struct{ cur atomic.Pointer[tracer] }

func (s *traceSwitch) get() *tracer {
	if s == nil {
		return nil
	}
	return s.cur.Load()
}

func (s *traceSwitch) set(t *tracer) { s.cur.Store(t) }

// The client and the coordinator's traced transport carry the operation
// index and the calling span's ID in these request headers, so the
// server-side span can name its parent.
const (
	headerOp     = "X-Perfbench-Op"
	headerParent = "X-Perfbench-Span"
)

type spanKey struct{}

// spanRef is the span a handler opened, carried in the request context;
// the coordinator passes that context down to its worker calls, where
// tracedTransport picks it up.
type spanRef struct{ id, op int64 }

func headerInt(r *http.Request, name string, def int64) int64 {
	v, err := strconv.ParseInt(r.Header.Get(name), 10, 64)
	if err != nil {
		return def
	}
	return v
}

// tracedHandler times next.ServeHTTP as a span called name.
func tracedHandler(sw *traceSwitch, name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := sw.get()
		if t == nil {
			next.ServeHTTP(w, r)
			return
		}
		s := span{
			ID:     t.newID(),
			Parent: headerInt(r, headerParent, 0),
			Op:     headerInt(r, headerOp, -1),
			Name:   name,
			Start:  t.now(),
		}
		ctx := context.WithValue(r.Context(), spanKey{}, spanRef{id: s.ID, op: s.Op})
		next.ServeHTTP(w, r.WithContext(ctx))
		s.End = t.now()
		t.add(s)
	})
}

// tracedTransport times each worker call the coordinator makes, from
// sending the request until the coordinator closes the response body.
type tracedTransport struct {
	sw   *traceSwitch
	next http.RoundTripper
}

func (tt *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t := tt.sw.get()
	if t == nil {
		return tt.next.RoundTrip(req)
	}
	ref, ok := req.Context().Value(spanKey{}).(spanRef)
	if !ok {
		ref = spanRef{op: -1}
	}
	s := span{ID: t.newID(), Parent: ref.id, Op: ref.op, Name: spanSubreq}
	out := req.Clone(req.Context())
	out.Header.Set(headerOp, strconv.FormatInt(ref.op, 10))
	out.Header.Set(headerParent, strconv.FormatInt(s.ID, 10))
	s.Start = t.now()
	resp, err := tt.next.RoundTrip(out)
	if err != nil {
		s.End = t.now()
		t.add(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() {
		s.End = t.now()
		t.add(s)
	}}
	return resp, nil
}

// spanBody ends its span when the body is closed.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// opSpans groups spans by operation index; background spans (Op < 0 or
// beyond ops) are dropped.
func opSpans(spans []span, ops int) [][]span {
	out := make([][]span, ops)
	for _, s := range spans {
		if s.Op >= 0 && s.Op < int64(ops) {
			out[s.Op] = append(out[s.Op], s)
		}
	}
	return out
}

// unionLen is the total time the intervals cover.
func unionLen(ss []span) time.Duration {
	if len(ss) == 0 {
		return 0
	}
	s := append([]span(nil), ss...)
	sort.Slice(s, func(i, j int) bool { return s[i].Start < s[j].Start })
	var total int64
	lo, hi := s[0].Start, s[0].End
	for _, x := range s[1:] {
		if x.Start > hi {
			total += hi - lo
			lo, hi = x.Start, x.End
			continue
		}
		if x.End > hi {
			hi = x.End
		}
	}
	total += hi - lo
	return time.Duration(total)
}

func spansNamed(ss []span, name string) []span {
	var out []span
	for _, s := range ss {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

func spanFile(workload string, seed int64) string {
	return filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
}
