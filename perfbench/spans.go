package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// maxSpans bounds the spans one traced run keeps in memory; later spans
// are counted as dropped.
const maxSpans = 2_000_000

// spanHeader carries "<op>.<parent span>" across the loopback HTTP hops
// the benchmark wraps, so a server-side span joins its caller's
// operation.
const spanHeader = "X-Perfbench-Span"

// span is one timed call into a layer: its name, the operation it
// belongs to, its parent, and when it started and ended. The zero span
// is inert: ending it records nothing, and it is what every begin
// returns while recording is off.
type span struct {
	id, parent, op uint64
	name           string
	start, end     time.Duration // since the recorder started
}

// recorder keeps the spans of a traced run. All methods are safe on a
// nil recorder and while recording is off; the stack is built with the
// same wrappers either way, so switching on measures only the spans.
type recorder struct {
	t0      time.Time
	on      atomic.Bool
	ids     atomic.Uint64
	dropped atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// recording reports whether spans are being kept.
func (rc *recorder) recording() bool { return rc != nil && rc.on.Load() }

// newOp returns a fresh operation id, or 0 while recording is off.
func (rc *recorder) newOp() uint64 {
	if !rc.recording() {
		return 0
	}
	return rc.ids.Add(1)
}

// begin opens a span named name in operation op under parent (0 for an
// operation's root).
func (rc *recorder) begin(name string, op, parent uint64) span {
	if op == 0 || !rc.recording() {
		return span{}
	}
	return span{id: rc.ids.Add(1), parent: parent, op: op, name: name, start: time.Since(rc.t0)}
}

// end closes sp under its own name.
func (rc *recorder) end(sp span) { rc.endAs(sp, sp.name) }

// endAs closes sp under name, for wrappers that learn what kind of call
// it was only at the end (a 200 or a 304).
func (rc *recorder) endAs(sp span, name string) {
	if sp.id == 0 {
		return
	}
	sp.name, sp.end = name, time.Since(rc.t0)
	rc.mu.Lock()
	if len(rc.spans) < maxSpans {
		rc.spans = append(rc.spans, sp)
	} else {
		rc.dropped.Add(1)
	}
	rc.mu.Unlock()
}

type spanKey struct{}

// withSpan returns ctx carrying sp as the parent of spans started below.
func withSpan(ctx context.Context, sp span) context.Context {
	if sp.id == 0 {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, sp)
}

func spanFrom(ctx context.Context) span {
	sp, _ := ctx.Value(spanKey{}).(span)
	return sp
}

// spanTransport opens a span named name around each round trip whose
// context carries a parent span, ending it when the response body has
// been read or closed, and tells the server which span caused the
// request.
type spanTransport struct {
	rc   *recorder
	name string
	base http.RoundTripper
}

func (t *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent := spanFrom(req.Context())
	sp := t.rc.begin(t.name, parent.op, parent.id)
	if sp.id == 0 {
		return t.base.RoundTrip(req)
	}
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatUint(sp.op, 10)+"."+strconv.FormatUint(sp.id, 10))
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.rc.end(sp)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, rc: t.rc, sp: sp}
	return resp, nil
}

// spanBody ends its span at the first EOF, error or Close.
type spanBody struct {
	io.ReadCloser
	rc   *recorder
	sp   span
	once sync.Once
}

func (b *spanBody) finish() { b.once.Do(func() { b.rc.end(b.sp) }) }

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.finish()
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

// spanHandler opens a span around each request that names its caller's
// span in spanHeader. With classify set, the span is named
// name+"_full" for a 200 and name+"_304" for a 304.
type spanHandler struct {
	rc       *recorder
	name     string
	classify bool
	inner    http.Handler
}

func (h *spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	op, parent, ok := parseSpanHeader(r.Header.Get(spanHeader))
	sp := h.rc.begin(h.name, op, parent)
	if !ok || sp.id == 0 {
		h.inner.ServeHTTP(w, r)
		return
	}
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	h.inner.ServeHTTP(sw, r.WithContext(withSpan(r.Context(), sp)))
	name := h.name
	if h.classify {
		switch sw.status {
		case http.StatusOK:
			name += "_full"
		case http.StatusNotModified:
			name += "_304"
		default:
			name += "_other"
		}
	}
	h.rc.endAs(sp, name)
}

func parseSpanHeader(v string) (op, parent uint64, ok bool) {
	a, b, found := strings.Cut(v, ".")
	if !found {
		return 0, 0, false
	}
	op, err1 := strconv.ParseUint(a, 10, 64)
	parent, err2 := strconv.ParseUint(b, 10, 64)
	return op, parent, err1 == nil && err2 == nil
}

// statusWriter remembers the status code a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// layerStats is one span name's calls, inclusive durations and self
// times (duration minus the part its children cover), in microseconds.
type layerStats struct {
	incl, own []float64
}

// analysis is the digest of a traced run's spans.
type analysis struct {
	spans    []span
	children map[uint64][]int
	layers   map[string]*layerStats
	// opWall and opRemainder hold, per operation whose root span has the
	// workload's root name, the root's duration and the part of it no
	// repository layer's self time covers (net/http, loopback, the
	// benchmark's own loop), in µs.
	opWall, opRemainder []float64
}

// repoLayer reports whether a span name belongs to one of the
// repository's modules, as opposed to net/http or the benchmark.
func repoLayer(name string) bool {
	mod, _, _ := strings.Cut(name, ".")
	switch mod {
	case "apptracker", "itracker", "portal", "federation", "p2psim":
		return true
	}
	return false
}

// analyze computes self times over the kept spans, and remainders over
// the operations rooted at a span named root.
func (rc *recorder) analyze(root string) *analysis {
	rc.mu.Lock()
	spans := rc.spans
	rc.mu.Unlock()

	a := &analysis{spans: spans, children: map[uint64][]int{}, layers: map[string]*layerStats{}}
	for i, s := range spans {
		if s.parent != 0 {
			a.children[s.parent] = append(a.children[s.parent], i)
		}
	}
	type opAcc struct{ wall, repoSelf float64 }
	ops := map[uint64]*opAcc{}
	var order []uint64
	for _, s := range spans {
		dur := s.end - s.start
		own := dur - covered(s, spans, a.children[s.id])
		ls := a.layers[s.name]
		if ls == nil {
			ls = &layerStats{}
			a.layers[s.name] = ls
		}
		ls.incl = append(ls.incl, us(dur))
		ls.own = append(ls.own, us(own))

		acc := ops[s.op]
		if acc == nil {
			acc = &opAcc{}
			ops[s.op] = acc
			order = append(order, s.op)
		}
		if s.parent == 0 && s.name == root {
			acc.wall += us(dur)
		}
		if repoLayer(s.name) {
			acc.repoSelf += us(own)
		}
	}
	for _, op := range order {
		acc := ops[op]
		if acc.wall == 0 {
			continue // not a workload operation, or its root was dropped
		}
		a.opWall = append(a.opWall, acc.wall)
		a.opRemainder = append(a.opRemainder, acc.wall-acc.repoSelf)
	}
	return a
}

// without returns, per span named name, its duration minus the part
// covered by its descendants named desc, in µs.
func (a *analysis) without(name, desc string) []float64 {
	var out []float64
	for _, s := range a.spans {
		if s.name != name {
			continue
		}
		var found []int
		stack := append([]int(nil), a.children[s.id]...)
		for len(stack) > 0 {
			k := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if a.spans[k].name == desc {
				found = append(found, k)
				continue
			}
			stack = append(stack, a.children[a.spans[k].id]...)
		}
		out = append(out, us(s.end-s.start-covered(s, a.spans, found)))
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's; concurrent children (the router's shard
// fetches) overlap.
func covered(parent span, spans []span, kids []int) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		s, e := spans[k].start, spans[k].end
		if s < parent.start {
			s = parent.start
		}
		if e > parent.end {
			e = parent.end
		}
		if e > s {
			iv = append(iv, [2]time.Duration{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curS, curE time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > curE {
			total += curE - curS
			curS, curE = x[0], x[1]
			continue
		}
		if x[1] > curE {
			curE = x[1]
		}
	}
	return total + curE - curS
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// inclP50 is the median inclusive duration of name's spans in µs.
func (a *analysis) inclP50(name string) float64 {
	if ls := a.layers[name]; ls != nil {
		return quantile(ls.incl, 0.5)
	}
	return 0
}

// selfP50 is the median self time of name's spans in µs.
func (a *analysis) selfP50(name string) float64 {
	if ls := a.layers[name]; ls != nil {
		return quantile(ls.own, 0.5)
	}
	return 0
}

// calls is how many name spans were kept.
func (a *analysis) calls(name string) float64 {
	if ls := a.layers[name]; ls != nil {
		return float64(len(ls.incl))
	}
	return 0
}

// busy is the summed inclusive duration of name's spans in seconds.
func (a *analysis) busy(name string) float64 {
	if ls := a.layers[name]; ls != nil {
		return sum(ls.incl) / 1e6
	}
	return 0
}

// selfBusy is the summed self time of name's spans in seconds.
func (a *analysis) selfBusy(name string) float64 {
	if ls := a.layers[name]; ls != nil {
		return sum(ls.own) / 1e6
	}
	return 0
}

// setRemainder records the unattributed remainder metrics.
func (a *analysis) setRemainder(r *result) {
	r.values["trace.unattributed_us_p50"] = quantile(append([]float64(nil), a.opRemainder...), 0.5)
	if w := sum(a.opWall); w > 0 {
		r.values["trace.unattributed_frac"] = sum(a.opRemainder) / w
	}
}

// table renders the per-layer table: per span name the calls, median
// inclusive and self time, total self time, and its share of the summed
// operation wall time, then the unattributed remainder.
func (a *analysis) table(title string) []string {
	wall := sum(a.opWall)
	lines := []string{
		fmt.Sprintf("per-layer table: %s (%d traced operations)", title, len(a.opWall)),
		fmt.Sprintf("  %-30s %9s %12s %12s %12s %8s", "span", "calls", "incl_p50_us", "self_p50_us", "self_total_s", "share"),
	}
	names := make([]string, 0, len(a.layers))
	for n := range a.layers {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		ls := a.layers[n]
		self := sum(ls.own)
		share := 0.0
		if wall > 0 {
			share = self / wall
		}
		lines = append(lines, fmt.Sprintf("  %-30s %9d %12.1f %12.1f %12.4f %7.1f%%",
			n, len(ls.incl), quantile(ls.incl, 0.5), quantile(ls.own, 0.5), self/1e6, 100*share))
	}
	rem := sum(a.opRemainder)
	share := 0.0
	if wall > 0 {
		share = rem / wall
	}
	lines = append(lines, fmt.Sprintf("  %-30s %9d %12s %12.1f %12.4f %7.1f%%",
		"unattributed", len(a.opRemainder), "-", quantile(append([]float64(nil), a.opRemainder...), 0.5), rem/1e6, 100*share))
	return lines
}

// write saves the kept spans as one tab-separated line each (id,
// parent, op, name, start_ns, end_ns) under dir.
func (rc *recorder) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "spans-"+workload+".tsv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintf(bw, "# id\tparent\top\tname\tstart_ns\tend_ns\t(dropped %d)\n", rc.dropped.Load())
	rc.mu.Lock()
	spans := rc.spans
	rc.mu.Unlock()
	for _, s := range spans {
		fmt.Fprintf(bw, "%d\t%d\t%d\t%s\t%d\t%d\n", s.id, s.parent, s.op, s.name, int64(s.start), int64(s.end))
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
