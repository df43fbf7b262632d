package portal

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"p4p/internal/core"
	"p4p/internal/itracker"
	"p4p/internal/telemetry"
	"p4p/internal/topology"
	"p4p/internal/trace"
)

// tokenHeader carries the caller's trust token.
const tokenHeader = "X-P4P-Token"

// tokenHeaderCanon is tokenHeader in canonical MIME form. Header.Get
// re-canonicalizes non-canonical keys on every call, which allocates;
// incoming headers are stored canonically, so reading with this key is
// equivalent and allocation-free.
const tokenHeaderCanon = "X-P4p-Token"

// maxBatchPairs bounds one batch request; anything larger should fetch
// the full matrix instead.
const maxBatchPairs = 65536

// maxBatchBody bounds the POST body of a batch request.
const maxBatchBody = 8 << 20

// jsonCTVals is the Content-Type header value shared by every cached
// response entry (header maps hold []string; sharing one immutable
// slice keeps the steady-state path allocation-free).
var jsonCTVals = []string{"application/json"}

// Source is what a Handler serves: the calls the portal makes on an
// iTracker, and on the federation router that stands in for a very
// wide one. *itracker.Server implements it; a source that is also a
// PolicySource or CapabilitySource gets those routes too.
//
// Errors map onto statuses: itracker.ErrAccessDenied is 403 and
// ErrUnavailable is 503 everywhere; any other error is 404 on the PID
// route and 500 elsewhere.
type Source interface {
	// ViewCtx returns the current view and its version, which keys the
	// handler's encoded-response cache and the ETag. A version names
	// one view and never goes backwards.
	ViewCtx(ctx context.Context, token string) (*core.View, int, error)
	// LookupPIDCtx maps a client address to its PID and AS number.
	LookupPIDCtx(ctx context.Context, token string, ip net.IP) (topology.PID, int, error)
}

// PolicySource is a Source that serves the policy interface.
type PolicySource interface {
	PolicyFor(token string) (itracker.Policy, error)
}

// CapabilitySource is a Source that serves the capability interface.
type CapabilitySource interface {
	Capabilities(token, kind string) ([]itracker.Capability, error)
}

// ErrUnavailable reports a source with no view to serve yet; the
// handler answers 503.
var ErrUnavailable = errors.New("portal: no view available")

// Handler serves one Source over HTTP:
//
//	GET  /p4p/v1/policy              (PolicySource only)
//	GET  /p4p/v1/distances[?form=ranks]
//	GET  /p4p/v1/distances/batch?pairs=src-dst,...
//	POST /p4p/v1/distances/batch
//	GET  /p4p/v1/capabilities[?kind=...]  (CapabilitySource only)
//	GET  /p4p/v1/pid?ip=a.b.c.d
//
// All responses are JSON; errors use {"error": "..."} envelopes. The
// distances endpoint is version-cacheable: responses carry an ETag
// derived from the source's view version and a per-process boot nonce,
// and requests presenting a current version via If-None-Match get 304
// Not Modified with no body, so refreshing appTrackers pay nothing when
// the view has not changed.
//
// The 200 path is cached too: the fully-encoded JSON body and its
// ETag/Content-Length header values are kept per (view version, form)
// — invalidated by version bump — so a steady-state response is a byte
// copy that never touches json.Marshal (see DESIGN.md §10). This is
// the only encoded-body cache: sources hand over views, and one request
// per form encodes each new version while concurrent ones wait for it.
//
// Every route runs through Telemetry, which mints a request ID (echoed
// in X-Request-ID and carried on the request context when a Logger is
// attached), records per-route request counts, status classes, and
// latency histograms, counts 304 ETag hits, and emits one structured
// log line per request. Set Telemetry.Metrics and Telemetry.Logger
// after NewHandler, before serving.
type Handler struct {
	Source Source
	// Telemetry instruments and logs every route; its zero value is
	// inert. Set its fields, do not replace the struct (route
	// registrations live inside it).
	Telemetry telemetry.Middleware
	// CacheMetrics, when non-nil, counts encoded-response-cache hits
	// and misses on the distances path (see NewCacheMetrics).
	CacheMetrics *CacheMetrics
	mux          *http.ServeMux

	// bootNonce distinguishes this process's ETags from a restarted
	// portal at the same view version: version counters restart at
	// zero, so without the nonce a client's stale If-None-Match could
	// spuriously revalidate against a fresh process serving different
	// data.
	bootNonce string

	// cacheRaw/cacheRanks hold the current fully-rendered response per
	// form; batchIdx holds the PID→row index for the batch endpoint.
	cacheRaw   formCache
	cacheRanks formCache
	batchIdx   atomic.Pointer[pidIndex]
}

// formCache is one form's slot in the encoded-response cache: the
// published entry, and a singleflight so one request encodes each new
// version while the others wait for its entry.
type formCache struct {
	entry    atomic.Pointer[respEntry]
	mu       sync.Mutex
	inflight chan struct{} // non-nil while one request encodes; closed when it is done
}

// respEntry is one fully-rendered distances response: the encoded body
// plus precomputed header value slices, so serving it writes no new
// strings. Entries are immutable once published.
type respEntry struct {
	version  int
	body     []byte
	etag     string
	etagVals []string // {etag}
	clenVals []string // {strconv.Itoa(len(body))}
}

// pidIndex maps view PIDs to matrix rows for one materialized view
// (keyed by pointer identity, not version: the PID set is re-derived
// per recompute).
type pidIndex struct {
	view *core.View
	idx  map[topology.PID]int
}

// CacheMetrics counts how the encoded-response cache behaves. All
// recording methods are nil-safe.
type CacheMetrics struct {
	// Hits counts distances responses served as a cached byte copy.
	Hits *telemetry.Counter
	// Misses counts distances requests that ran the encode: one per
	// (version, form), however many requests arrive at once.
	Misses *telemetry.Counter
}

// NewCacheMetrics registers the encoded-response-cache metric families.
func NewCacheMetrics(r *telemetry.Registry) *CacheMetrics {
	return &CacheMetrics{
		Hits: r.Counter("p4p_portal_encoded_cache_hits_total",
			"Distances responses served from the encoded-response cache."),
		Misses: r.Counter("p4p_portal_encoded_cache_misses_total",
			"Distances requests that ran the encode: one per view version and form."),
	}
}

func (m *CacheMetrics) hit() {
	if m != nil {
		m.Hits.Inc()
	}
}

func (m *CacheMetrics) miss() {
	if m != nil {
		m.Misses.Inc()
	}
}

// NewHandler builds the HTTP handler for a source.
func NewHandler(src Source) *Handler {
	h := &Handler{
		Source:    src,
		mux:       http.NewServeMux(),
		bootNonce: fmt.Sprintf("%08x", rand.Uint32()),
	}
	if ps, ok := src.(PolicySource); ok {
		h.route("GET /p4p/v1/policy", "policy", func(w http.ResponseWriter, r *http.Request) {
			pol, err := ps.PolicyFor(r.Header.Get(tokenHeaderCanon))
			h.writeResult(w, r, pol, err)
		})
	}
	if cs, ok := src.(CapabilitySource); ok {
		h.route("GET /p4p/v1/capabilities", "capabilities", func(w http.ResponseWriter, r *http.Request) {
			caps, err := cs.Capabilities(r.Header.Get(tokenHeaderCanon), r.URL.Query().Get("kind"))
			if caps == nil {
				caps = []itracker.Capability{}
			}
			h.writeResult(w, r, caps, err)
		})
	}
	h.route("GET /p4p/v1/distances", "distances", h.handleDistances)
	h.route("GET /p4p/v1/distances/batch", "distances_batch", h.handleBatch)
	h.route("POST /p4p/v1/distances/batch", "distances_batch", h.handleBatch)
	h.route("GET /p4p/v1/pid", "pid", h.handlePID)
	return h
}

// Handle registers an extra route on the handler's mux, outside the
// /p4p/v1 interfaces (e.g. a router's /stats and probes). Wrap it with
// Telemetry.RouteFunc to instrument it.
func (h *Handler) Handle(pattern string, handler http.Handler) {
	h.mux.Handle(pattern, handler)
}

func (h *Handler) route(pattern, name string, fn http.HandlerFunc) {
	h.mux.Handle(pattern, h.Telemetry.RouteFunc(name, fn))
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

// WriteJSON encodes v to a buffer before touching the ResponseWriter,
// so an encoding failure (e.g. a NaN sneaking into a matrix) yields a
// clean 500 error envelope instead of a truncated HTTP 200. Buffering
// also supplies Content-Length, keeping responses out of chunked
// transfer encoding.
//
//p4p:coldpath fresh JSON encode; the zero-alloc contract covers the cached byte-copy path, not per-request marshaling
func (h *Handler) WriteJSON(w http.ResponseWriter, r *http.Request, status int, v interface{}) {
	body, err := json.Marshal(v)
	if err != nil {
		if l := h.Telemetry.Logger; l != nil {
			l.Error("encode response",
				slog.String("request_id", telemetry.RequestID(r.Context())),
				slog.String("error", err.Error()))
		}
		status = http.StatusInternalServerError
		body, _ = json.Marshal(errorWire{Error: "response encoding failed"})
	}
	body = append(body, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body)
}

// writeErr answers a source error: itracker.ErrAccessDenied is 403,
// ErrUnavailable 503, anything else the given status.
//
//p4p:coldpath error responses are off the measured serving path
func (h *Handler) writeErr(w http.ResponseWriter, r *http.Request, status int, err error) {
	switch {
	case errors.Is(err, itracker.ErrAccessDenied):
		status = http.StatusForbidden
	case errors.Is(err, ErrUnavailable):
		status = http.StatusServiceUnavailable
	}
	h.WriteJSON(w, r, status, errorWire{Error: err.Error()})
}

// writeResult writes v, or the source error that replaced it.
//
//p4p:coldpath fresh JSON encode of a small policy or capability body
func (h *Handler) writeResult(w http.ResponseWriter, r *http.Request, v interface{}, err error) {
	if err != nil {
		h.writeErr(w, r, http.StatusInternalServerError, err)
		return
	}
	h.WriteJSON(w, r, http.StatusOK, v)
}

// ETagMatches reports whether an If-None-Match header value matches the
// given ETag, honoring comma-separated lists, W/ weak prefixes, and the
// "*" wildcard. It scans in place — no splitting — because it runs on
// the revalidation fast path.
func ETagMatches(header, etag string) bool {
	for len(header) > 0 {
		part := header
		if i := strings.IndexByte(header, ','); i >= 0 {
			part, header = header[:i], header[i+1:]
		} else {
			header = ""
		}
		part = strings.TrimSpace(part)
		part = strings.TrimPrefix(part, "W/")
		if part == "*" || part == etag {
			return true
		}
	}
	return false
}

// cacheFor returns the response-cache slot for a form. Forms are
// validated before this is reached.
func (h *Handler) cacheFor(form string) *formCache {
	if form == "ranks" {
		return &h.cacheRanks
	}
	return &h.cacheRaw
}

// ETag is the entity tag the distances endpoint sends for a view
// version and form: "<boot-nonce>-v<version>-<form>", quoted.
func (h *Handler) ETag(version int, form string) string {
	return fmt.Sprintf("%q", fmt.Sprintf("%s-v%d-%s", h.bootNonce, version, form))
}

// fill returns the entry for view v at version ver, encoding it unless
// an entry that new is published while this request waits its turn:
// one request per form encodes at a time, so concurrent misses on a new
// version encode once. The encoder's slot is released under defer, so
// a failing or panicking encode leaves the next request free to retry.
// Only the slot holder publishes, after checking under fc.mu that its
// version is newer, so an entry is never replaced by an older one.
//
//p4p:coldpath runs once per (version, form) cache miss; its encode and fmt work is the point of pre-rendering
func (h *Handler) fill(ctx context.Context, fc *formCache, form string, v *core.View, ver int) (*respEntry, error) {
	fc.mu.Lock()
	for fc.inflight != nil {
		done := fc.inflight
		fc.mu.Unlock()
		_, span := trace.StartSpan(ctx, "encode_wait")
		<-done
		span.End()
		fc.mu.Lock()
	}
	if ent := fc.entry.Load(); ent != nil && ent.version >= ver {
		fc.mu.Unlock()
		h.CacheMetrics.hit()
		return ent, nil
	}
	done := make(chan struct{})
	fc.inflight = done
	fc.mu.Unlock()
	defer func() {
		fc.mu.Lock()
		fc.inflight = nil
		fc.mu.Unlock()
		close(done)
	}()
	h.CacheMetrics.miss()
	ent, err := h.encode(ctx, form, v, ver)
	if err == nil {
		fc.entry.Store(ent)
	}
	return ent, err
}

// encode renders one view for a form into a response entry. Bodies
// include the trailing newline WriteJSON appends, so cached and
// freshly-encoded responses are byte-identical.
//
//p4p:coldpath once per (version, form); the hot path replays its bytes
func (h *Handler) encode(ctx context.Context, form string, v *core.View, ver int) (*respEntry, error) {
	_, span := trace.StartSpan(ctx, "encode")
	defer span.End()
	span.SetAttr("form", form)
	if form == "ranks" {
		v = core.RankView(v)
	}
	body, err := json.Marshal(ToWire(v))
	if err != nil {
		span.RecordError(err)
		return nil, err
	}
	body = append(body, '\n')
	span.SetAttrInt("bytes", len(body))
	etag := h.ETag(ver, form)
	return &respEntry{
		version:  ver,
		body:     body,
		etag:     etag,
		etagVals: []string{etag},
		clenVals: []string{strconv.Itoa(len(body))},
	}, nil
}

// handleDistances is the steady-state serving path pinned by
// BenchmarkPortalDistances and TestCachedDistancesAllocs: a cache hit
// must be a byte copy.
//
//p4p:hotpath
func (h *Handler) handleDistances(w http.ResponseWriter, r *http.Request) {
	token := r.Header.Get(tokenHeaderCanon)
	form := "raw"
	if r.URL.RawQuery != "" { // parsing the query allocates; skip it when absent
		if f := r.URL.Query().Get("form"); f != "" {
			form = f
		}
		if form != "raw" && form != "ranks" {
			h.WriteJSON(w, r, http.StatusBadRequest, errorWire{Error: "unknown form; use raw or ranks"})
			return
		}
	}
	//p4pvet:ignore allochot Source implementations' view reads are //p4p:hotpath roots of their own
	v, ver, err := h.Source.ViewCtx(r.Context(), token)
	if err != nil {
		h.writeErr(w, r, http.StatusInternalServerError, err)
		return
	}
	fc := h.cacheFor(form)
	ent := fc.entry.Load()
	if ent == nil || ent.version < ver {
		if ent, err = h.fill(r.Context(), fc, form, v, ver); err != nil {
			h.writeErr(w, r, http.StatusInternalServerError, err)
			return
		}
	} else {
		h.CacheMetrics.hit()
	}
	// Direct map assignment with pre-canonicalized keys ("Etag" is the
	// canonical MIME form) and shared value slices: zero allocations.
	if inm := r.Header.Get("If-None-Match"); inm != "" && ETagMatches(inm, ent.etag) {
		w.Header()["Etag"] = ent.etagVals
		w.WriteHeader(http.StatusNotModified)
		return
	}
	hdr := w.Header()
	hdr["Content-Type"] = jsonCTVals
	hdr["Etag"] = ent.etagVals
	hdr["Content-Length"] = ent.clenVals
	w.WriteHeader(http.StatusOK)
	w.Write(ent.body)
}

// ParsePairs parses the GET form of a batch request:
// pairs=src-dst,src-dst with decimal PIDs.
func ParsePairs(s string) ([]PIDPair, error) {
	if s == "" {
		return nil, errors.New("missing pairs parameter; use pairs=src-dst,src-dst")
	}
	parts := strings.Split(s, ",")
	out := make([]PIDPair, 0, len(parts))
	for _, p := range parts {
		dash := strings.IndexByte(p, '-')
		if dash < 0 {
			return nil, fmt.Errorf("malformed pair %q; want src-dst", p)
		}
		src, err := strconv.Atoi(p[:dash])
		if err != nil {
			return nil, fmt.Errorf("malformed pair %q: %v", p, err)
		}
		dst, err := strconv.Atoi(p[dash+1:])
		if err != nil {
			return nil, fmt.Errorf("malformed pair %q: %v", p, err)
		}
		out = append(out, PIDPair{Src: topology.PID(src), Dst: topology.PID(dst)})
	}
	return out, nil
}

// ParseBatchBody decodes the POST form of a batch request: exactly one
// JSON object of at most maxBatchBody bytes.
func ParseBatchBody(body io.Reader) ([]PIDPair, error) {
	b, err := io.ReadAll(io.LimitReader(body, maxBatchBody+1))
	if err != nil {
		return nil, fmt.Errorf("read request body: %v", err)
	}
	if len(b) > maxBatchBody {
		return nil, fmt.Errorf("request body exceeds the %d-byte batch limit", maxBatchBody)
	}
	var req BatchRequestWire
	if err := json.Unmarshal(b, &req); err != nil {
		return nil, fmt.Errorf("decode request body: %v", err)
	}
	return req.Pairs, nil
}

// parseBatch reads either wire form of a batch request and bounds its
// size. Every error it returns is the caller's fault (400).
//
//p4p:coldpath request parsing allocates by nature; the batch hot loop is the row lookup
func parseBatch(r *http.Request) ([]PIDPair, error) {
	var pairs []PIDPair
	var err error
	if r.Method == http.MethodPost {
		pairs, err = ParseBatchBody(r.Body)
	} else {
		pairs, err = ParsePairs(r.URL.Query().Get("pairs"))
	}
	switch {
	case err != nil:
		return nil, err
	case len(pairs) == 0:
		return nil, errors.New("empty pairs list")
	case len(pairs) > maxBatchPairs:
		return nil, fmt.Errorf("%d pairs exceeds the %d-pair batch limit", len(pairs), maxBatchPairs)
	}
	return pairs, nil
}

// pidIndexFor returns the PID→row map for a view, cached by view
// identity so batch requests do one map lookup per PID instead of a
// linear scan of View.Index.
func (h *Handler) pidIndexFor(v *core.View) map[topology.PID]int {
	if cached := h.batchIdx.Load(); cached != nil && cached.view == v {
		return cached.idx
	}
	idx := make(map[topology.PID]int, len(v.PIDs))
	for i, p := range v.PIDs {
		idx[p] = i
	}
	//p4pvet:ignore allochot index entry is rebuilt once per view identity change, then hit by every batch request
	h.batchIdx.Store(&pidIndex{view: v, idx: idx})
	return idx
}

// handleBatch serves many src/dst distance queries from the same cached
// view as the full-matrix endpoint, without shipping the whole matrix:
// appTrackers that poll N portals for a handful of pairs each (the
// federation workload) stop re-downloading square matrices.
//
//p4p:hotpath
func (h *Handler) handleBatch(w http.ResponseWriter, r *http.Request) {
	pairs, err := parseBatch(r)
	if err != nil {
		h.WriteJSON(w, r, http.StatusBadRequest, errorWire{Error: err.Error()})
		return
	}
	//p4pvet:ignore allochot Source implementations' view reads are //p4p:hotpath roots of their own
	v, _, err := h.Source.ViewCtx(r.Context(), r.Header.Get(tokenHeaderCanon))
	if err != nil {
		h.writeErr(w, r, http.StatusInternalServerError, err)
		return
	}
	idx := h.pidIndexFor(v)
	out := BatchResponseWire{Version: v.Version, Distances: make([]float64, len(pairs))}
	for k, pr := range pairs {
		a, okA := idx[pr.Src]
		b, okB := idx[pr.Dst]
		if !okA || !okB {
			pid := pr.Src
			if okA {
				pid = pr.Dst
			}
			h.WriteJSON(w, r, http.StatusBadRequest,
				errorWire{Error: fmt.Sprintf("PID %d not in the external view", pid)})
			return
		}
		if d := v.D[a][b]; math.IsInf(d, 0) {
			out.Distances[k] = Unreachable
		} else {
			out.Distances[k] = d
		}
	}
	h.WriteJSON(w, r, http.StatusOK, out)
}

func (h *Handler) handlePID(w http.ResponseWriter, r *http.Request) {
	ip := net.ParseIP(r.URL.Query().Get("ip"))
	if ip == nil {
		h.WriteJSON(w, r, http.StatusBadRequest, errorWire{Error: "missing or malformed ip parameter"})
		return
	}
	pid, asn, err := h.Source.LookupPIDCtx(r.Context(), r.Header.Get(tokenHeaderCanon), ip)
	if err != nil {
		h.writeErr(w, r, http.StatusNotFound, err)
		return
	}
	h.WriteJSON(w, r, http.StatusOK, PIDLookupWire{PID: pid, ASN: asn})
}
