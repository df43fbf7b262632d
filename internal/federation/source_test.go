package federation

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"p4p/internal/core"
	"p4p/internal/itracker"
	"p4p/internal/portal"
	"p4p/internal/topology"
)

// TestRouterCancelledRequestKeepsShardsHealthy is the regression test
// for shard refreshes inheriting the triggering request's cancellation:
// one aborted client past the TTL used to mark every shard failed for
// the whole failure backoff, so healthy callers kept getting the stale
// merge.
func TestRouterCancelledRequestKeepsShardsHealthy(t *testing.T) {
	rt, clk, fa, _ := testFederation(t)
	if rec := get(t, rt, "/p4p/v1/distances", nil); rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	va := viewA()
	va.Version = 4
	va.D[0][1], va.D[1][0] = 2.5, 2.5
	fa.setView(va)
	clk.advance(31 * time.Second)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodGet, "/p4p/v1/distances", nil).WithContext(ctx)
	rt.ServeHTTP(httptest.NewRecorder(), req)

	for _, s := range rt.Stats().Shards {
		if s.Failures != 0 || !s.Fresh {
			t.Errorf("shard %s after a cancelled request: failures=%d fresh=%v, want 0 and true", s.Name, s.Failures, s.Fresh)
		}
	}
	clk.advance(time.Second)
	rec := get(t, rt, "/p4p/v1/distances", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if d := decodeView(t, rec.Body.Bytes()).Distance(0, 1); d != 2.5 {
		t.Errorf("healthy caller served d(0,1) = %v from a stale merge, want 2.5", d)
	}
}

// TestRouterServesNoPolicyOrCapabilities: the router is a portal over a
// source without those interfaces, so they stay unrouted.
func TestRouterServesNoPolicyOrCapabilities(t *testing.T) {
	rt, _, _, _ := testFederation(t)
	for _, path := range []string{"/p4p/v1/policy", "/p4p/v1/capabilities"} {
		if rec := get(t, rt, path, nil); rec.Code != http.StatusNotFound {
			t.Errorf("%s status = %d, want 404", path, rec.Code)
		}
	}
}

// gatedBackend holds every distances request until its release hook
// returns, so a test can act while the router's first fetch is in
// flight.
type gatedBackend struct {
	fakeBackend
	once    sync.Once
	release func()
}

func (g *gatedBackend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/p4p/v1/distances" {
		g.once.Do(g.release)
	}
	g.fakeBackend.ServeHTTP(w, r)
}

// TestRouterColdStartCallersWait: a caller arriving while the first
// refresh is in flight waits for it instead of getting a 503 that the
// refresh is about to obsolete.
func TestRouterColdStartCallersWait(t *testing.T) {
	second := make(chan int, 1)
	var rt *Router
	gb := &gatedBackend{fakeBackend: fakeBackend{view: viewA()}}
	gb.release = func() {
		// The first fetch is in flight: issue a second caller and give it
		// a bounded window. It must still be waiting when the window
		// closes; a caller that returns early got no view.
		go func() { second <- get(t, rt, "/p4p/v1/distances", nil).Code }()
		select {
		case code := <-second:
			second <- code
		case <-time.After(100 * time.Millisecond):
		}
	}
	srv := httptest.NewServer(gb)
	t.Cleanup(srv.Close)
	var err error
	rt, err = NewRouter(Config{Shards: []ShardConfig{{Name: "a", BaseURL: srv.URL}}, Client: fastClient()})
	if err != nil {
		t.Fatal(err)
	}
	rt.nowFn = newFakeClock().now
	if rec := get(t, rt, "/p4p/v1/distances", nil); rec.Code != http.StatusOK {
		t.Fatalf("first caller status = %d", rec.Code)
	}
	select {
	case code := <-second:
		if code != http.StatusOK {
			t.Errorf("cold-start caller during the first refresh got %d, want 200", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second caller never returned")
	}
}

// TestRouterCachedDistancesAllocs pins the federated steady state to
// the same budget as portal's TestCachedDistancesAllocs: inside the TTL
// a request is a token check, a cache read, and a byte copy.
func TestRouterCachedDistancesAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	rt, _, _, _ := testFederation(t)
	req := httptest.NewRequest(http.MethodGet, "/p4p/v1/distances", nil)
	rt.ServeHTTP(httptest.NewRecorder(), req) // prime the merge and the encoded cache
	w := &discardWriter{hdr: make(http.Header, 8)}
	allocs := testing.AllocsPerRun(500, func() {
		w.status = 0
		rt.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("status %d", w.status)
		}
	})
	if allocs > 5 {
		t.Fatalf("cached federated distances path: %.1f allocs/op, want <= 5", allocs)
	}
}

// discardWriter is a reusable ResponseWriter that drops the body.
type discardWriter struct {
	hdr    http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.hdr }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestBatchParsingSameOnBothSources runs one table of batch requests
// against a single iTracker's portal and against the federation router:
// both are portal.Handler, so they must parse identically.
func TestBatchParsingSameOnBothSources(t *testing.T) {
	g := topology.Abilene()
	eng := core.NewEngine(g, topology.ComputeRouting(g), core.Config{})
	rt, _, _, _ := testFederation(t)
	sources := map[string]http.Handler{
		"itracker":   portal.NewHandler(itracker.New(itracker.Config{Name: "t", ASN: 1}, eng, nil)),
		"federation": rt,
	}
	oversize := `{"pairs":[` + strings.Repeat(`{"src":0,"dst":1},`, 8<<20/18+1) + `{"src":0,"dst":1}]}`
	cases := []struct {
		name, method, url, body string
		want                    int
		msg                     string
	}{
		{"GET ok", http.MethodGet, "?pairs=0-1,1-0", "", http.StatusOK, ""},
		{"POST ok", http.MethodPost, "", `{"pairs":[{"src":0,"dst":1}]}`, http.StatusOK, ""},
		{"POST trailing garbage", http.MethodPost, "", `{"pairs":[{"src":0,"dst":1}]}garbage`, http.StatusBadRequest, "decode request body"},
		{"POST second object", http.MethodPost, "", `{"pairs":[]} {"pairs":[]}`, http.StatusBadRequest, "decode request body"},
		{"POST truncated", http.MethodPost, "", `{"pairs":`, http.StatusBadRequest, "decode request body"},
		{"POST oversize", http.MethodPost, "", oversize, http.StatusBadRequest, "byte batch limit"},
		{"POST empty pairs", http.MethodPost, "", `{"pairs":[]}`, http.StatusBadRequest, "empty pairs list"},
		{"GET missing pairs", http.MethodGet, "", "", http.StatusBadRequest, "missing pairs"},
		{"GET malformed pair", http.MethodGet, "?pairs=0_1", "", http.StatusBadRequest, "malformed pair"},
		{"GET unknown PID", http.MethodGet, "?pairs=0-9999", "", http.StatusBadRequest, "PID 9999 not in the external view"},
	}
	for name, h := range sources {
		for _, tc := range cases {
			t.Run(name+"/"+tc.name, func(t *testing.T) {
				req := httptest.NewRequest(tc.method, "/p4p/v1/distances/batch"+tc.url, strings.NewReader(tc.body))
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != tc.want {
					t.Fatalf("status = %d, want %d (body %s)", rec.Code, tc.want, rec.Body.Bytes())
				}
				if !bytes.Contains(rec.Body.Bytes(), []byte(tc.msg)) {
					t.Errorf("body %s does not mention %q", rec.Body.Bytes(), tc.msg)
				}
			})
		}
	}
}
