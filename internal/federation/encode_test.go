package federation

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"p4p/internal/core"
	"p4p/internal/itracker"
	"p4p/internal/portal"
	"p4p/internal/telemetry"
	"p4p/internal/topology"
)

// The tests in this file pin the portal's encoded-response cache — the
// one place a view is encoded and its bytes kept — over both sources it
// serves: a single iTracker, and the federation router over two shards.

// bigView is a synthetic n-PID shard view starting at PID base: large
// enough (with its partner) that encoding the merge takes measurable
// time, so concurrent misses overlap.
func bigView(base topology.PID, n, version int) *core.View {
	v := &core.View{Version: version, D: make([][]float64, n)}
	for i := 0; i < n; i++ {
		v.PIDs = append(v.PIDs, base+topology.PID(i))
		v.D[i] = make([]float64, n)
		for j := range v.D[i] {
			v.D[i][j] = math.Abs(float64(i-j)) + float64(version)/8
		}
	}
	return v
}

// encodeSource is one Source under test: a handler with cache metrics
// over it, and a hook that moves the source to a new view version.
type encodeSource struct {
	name string
	src  portal.Source
	h    *portal.Handler
	bump func()
}

// encodeSources builds both sources. The router's shards serve
// shardPIDs PIDs each; tokens, when given, restrict both.
func encodeSources(t *testing.T, shardPIDs int, tokens ...string) []encodeSource {
	t.Helper()
	g := topology.Abilene()
	tr := itracker.New(itracker.Config{Name: "t", ASN: 1, TrustedTokens: tokens},
		core.NewEngine(g, topology.ComputeRouting(g), core.Config{}), nil)
	th := portal.NewHandler(tr)
	th.CacheMetrics = portal.NewCacheMetrics(telemetry.NewRegistry())

	fa := &fakeBackend{view: bigView(0, shardPIDs, 1)}
	fb := &fakeBackend{view: bigView(1000, shardPIDs, 1)}
	sa, sb := httptest.NewServer(fa), httptest.NewServer(fb)
	t.Cleanup(sa.Close)
	t.Cleanup(sb.Close)
	rt, err := NewRouter(Config{
		Shards:        []ShardConfig{{Name: "a", BaseURL: sa.URL}, {Name: "b", BaseURL: sb.URL}},
		Circuits:      []Circuit{{A: "a", APID: topology.PID(shardPIDs - 1), B: "b", BPID: 1000, Cost: 7}},
		TrustedTokens: tokens,
		TTL:           30 * time.Second,
		Client:        fastClient(),
	})
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	rt.nowFn = clk.now
	rt.CacheMetrics = portal.NewCacheMetrics(telemetry.NewRegistry())
	version := 1
	return []encodeSource{
		{name: "itracker", src: tr, h: th, bump: func() { tr.ObserveAndUpdate(make([]float64, g.NumLinks())) }},
		{name: "federation", src: rt, h: rt.Handler, bump: func() {
			version++
			fa.setView(bigView(0, shardPIDs, version))
			clk.advance(31 * time.Second)
		}},
	}
}

// misses is how many requests have run the encode on h.
func misses(h *portal.Handler) int { return int(h.CacheMetrics.Misses.Value()) }

// TestEncodedViewSingleflight fires 32 concurrent GETs per form behind
// a start barrier, cold and after each version bump: every round must
// encode exactly once per form, and callers served one ETag must get
// the same bytes. The router used to encode the merge once per
// concurrent miss; a 200-PID merge makes the misses overlap.
func TestEncodedViewSingleflight(t *testing.T) {
	const rounds, workers = 2, 32
	for _, s := range encodeSources(t, 100) {
		t.Run(s.name, func(t *testing.T) {
			want := 0
			for r := 0; r < rounds; r++ {
				if r > 0 {
					s.bump()
				}
				for _, path := range []string{"/p4p/v1/distances", "/p4p/v1/distances?form=ranks"} {
					start := make(chan struct{})
					recs := make([]*httptest.ResponseRecorder, workers)
					var wg sync.WaitGroup
					for w := range recs {
						wg.Add(1)
						go func() {
							defer wg.Done()
							<-start
							recs[w] = get(t, s.h, path, nil)
						}()
					}
					close(start)
					wg.Wait()
					bodies := map[string][]byte{} // by ETag: the router answers stale during a refresh
					for _, rec := range recs {
						if rec.Code != http.StatusOK {
							t.Fatalf("round %d %s: status %d", r, path, rec.Code)
						}
						etag := rec.Header().Get("Etag")
						if b, ok := bodies[etag]; ok && !bytes.Equal(b, rec.Body.Bytes()) {
							t.Fatalf("round %d %s: concurrent callers got different bodies under %s", r, path, etag)
						}
						bodies[etag] = rec.Body.Bytes()
					}
					want++
					if got := misses(s.h); got != want {
						t.Fatalf("round %d %s: %d encodes so far, want %d (one per version and form)", r, path, got, want)
					}
				}
			}
		})
	}
}

// TestEncodedViewCachesBytes: repeats at one version replay the cached
// bytes, raw and ranks are cached independently, and a version bump
// re-encodes under a new ETag.
func TestEncodedViewCachesBytes(t *testing.T) {
	for _, s := range encodeSources(t, 20) {
		t.Run(s.name, func(t *testing.T) {
			first := get(t, s.h, "/p4p/v1/distances", nil)
			again := get(t, s.h, "/p4p/v1/distances", nil)
			if first.Code != http.StatusOK || again.Code != http.StatusOK {
				t.Fatalf("status %d, %d", first.Code, again.Code)
			}
			if again.Body.String() != first.Body.String() || again.Header().Get("Etag") != first.Header().Get("Etag") {
				t.Fatal("repeat at one version changed the body or ETag")
			}
			if n := misses(s.h); n != 1 {
				t.Fatalf("encodes = %d, want 1", n)
			}

			ranks := get(t, s.h, "/p4p/v1/distances?form=ranks", nil)
			if ranks.Code != http.StatusOK || ranks.Header().Get("Etag") == first.Header().Get("Etag") {
				t.Fatalf("ranks: status %d, ETag %s shared with raw", ranks.Code, ranks.Header().Get("Etag"))
			}
			if n := misses(s.h); n != 2 {
				t.Fatalf("encodes after the second form = %d, want 2", n)
			}
			get(t, s.h, "/p4p/v1/distances?form=ranks", nil)
			get(t, s.h, "/p4p/v1/distances", nil)
			if n := misses(s.h); n != 2 {
				t.Fatalf("encodes after repeating both forms = %d, want 2", n)
			}

			s.bump()
			bumped := get(t, s.h, "/p4p/v1/distances", nil)
			if bumped.Code != http.StatusOK {
				t.Fatalf("status after bump %d", bumped.Code)
			}
			if bumped.Header().Get("Etag") == first.Header().Get("Etag") || bumped.Body.String() == first.Body.String() {
				t.Fatal("version bump served the cached entry")
			}
			if n := misses(s.h); n != 3 {
				t.Fatalf("encodes after bump = %d, want 3", n)
			}
		})
	}
}

// faultySource passes a real source through, except that while bad is
// set it serves bad(view) in place of the view: a stand-in for a source
// handing the handler a view its encoder cannot take.
type faultySource struct {
	portal.Source
	mu  sync.Mutex
	bad func(*core.View) *core.View
}

func (f *faultySource) setBad(bad func(*core.View) *core.View) {
	f.mu.Lock()
	f.bad = bad
	f.mu.Unlock()
}

func (f *faultySource) ViewCtx(ctx context.Context, token string) (*core.View, int, error) {
	v, ver, err := f.Source.ViewCtx(ctx, token)
	f.mu.Lock()
	bad := f.bad
	f.mu.Unlock()
	if err == nil && bad != nil {
		v = bad(v)
	}
	return v, ver, err
}

// withNaN copies v with a NaN distance, which JSON cannot encode.
func withNaN(v *core.View) *core.View {
	c := *v
	c.D = make([][]float64, len(v.D))
	for i, row := range v.D {
		c.D[i] = append([]float64(nil), row...)
	}
	c.D[0][1] = math.NaN()
	return &c
}

// ragged copies v with its first row one entry short, which RankView
// indexes past.
func ragged(v *core.View) *core.View {
	c := *v
	c.D = append([][]float64{v.D[0][:len(v.D[0])-1]}, v.D[1:]...)
	return &c
}

// TestEncodedViewErrors: access control is answered 403 before any
// encode, and an encode error is answered 500 without being cached, so
// the next request at the same version encodes again and succeeds.
func TestEncodedViewErrors(t *testing.T) {
	tok := map[string]string{"X-P4P-Token": "tok"}
	for _, s := range encodeSources(t, 20, "tok") {
		t.Run(s.name, func(t *testing.T) {
			fs := &faultySource{Source: s.src}
			h := portal.NewHandler(fs)
			h.CacheMetrics = portal.NewCacheMetrics(telemetry.NewRegistry())
			if rec := get(t, h, "/p4p/v1/distances", map[string]string{"X-P4P-Token": "wrong"}); rec.Code != http.StatusForbidden {
				t.Fatalf("wrong token: status %d, want 403", rec.Code)
			}
			if n := misses(h); n != 0 {
				t.Fatalf("a denied request ran %d encodes", n)
			}

			fs.setBad(withNaN)
			if rec := get(t, h, "/p4p/v1/distances", tok); rec.Code != http.StatusInternalServerError {
				t.Fatalf("unencodable view: status %d, want 500", rec.Code)
			}
			fs.setBad(nil)
			rec := get(t, h, "/p4p/v1/distances", tok)
			if rec.Code != http.StatusOK {
				t.Fatalf("retry after encode failure: status %d (error was cached?)", rec.Code)
			}
			if n := misses(h); n != 2 {
				t.Fatalf("encodes = %d, want 2 (the failure and the retry)", n)
			}
			decodeView(t, rec.Body.Bytes())
		})
	}
}

// TestEncodedViewPanicReleasesSingleflight: an encode that panics (a
// ragged view on ?form=ranks) must release the form's singleflight, so
// the next request encodes instead of waiting forever.
func TestEncodedViewPanicReleasesSingleflight(t *testing.T) {
	const path = "/p4p/v1/distances?form=ranks"
	for _, s := range encodeSources(t, 20) {
		t.Run(s.name, func(t *testing.T) {
			fs := &faultySource{Source: s.src}
			h := portal.NewHandler(fs)
			h.CacheMetrics = portal.NewCacheMetrics(telemetry.NewRegistry())
			fs.setBad(ragged)
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("encoding a ragged view did not panic")
					}
				}()
				get(t, h, path, nil)
			}()

			fs.setBad(nil)
			done := make(chan int, 1)
			go func() { done <- get(t, h, path, nil).Code }()
			select {
			case code := <-done:
				if code != http.StatusOK {
					t.Fatalf("request after the panic: status %d", code)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("ranks form wedged after a panicking encode")
			}
			if n := misses(h); n != 2 {
				t.Fatalf("encodes = %d, want 2 (the panic and the retry)", n)
			}
		})
	}
}

// etagVersion extracts the version from a portal ETag
// ("<nonce>-v<version>-<form>", quoted).
func etagVersion(t *testing.T, etag string) int {
	t.Helper()
	s, err := strconv.Unquote(etag)
	if err != nil {
		t.Fatalf("unquote ETag %q: %v", etag, err)
	}
	_, rest, _ := strings.Cut(s, "-v")
	n, err := strconv.Atoi(rest[:strings.LastIndexByte(rest, '-')])
	if err != nil {
		t.Fatalf("version in ETag %q: %v", etag, err)
	}
	return n
}

// TestEncodedViewBodyMatchesVersion hammers both forms while the source
// moves through versions. A version names one body: every 200 under
// one ETag carries the same bytes, and on the iTracker the ETag version
// is the body's own. A torn entry (new ETag, old bytes) would make
// clients keep a wrong validator.
func TestEncodedViewBodyMatchesVersion(t *testing.T) {
	for _, s := range encodeSources(t, 20) {
		t.Run(s.name, func(t *testing.T) {
			var mu sync.Mutex
			bodies := map[string]string{}
			var wg sync.WaitGroup
			stop := make(chan struct{})
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer close(stop)
				for i := 0; i < 10; i++ {
					s.bump()
				}
			}()
			for w := 0; w < 4; w++ {
				path := "/p4p/v1/distances"
				if w%2 == 1 {
					path += "?form=ranks"
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						rec := get(t, s.h, path, nil)
						if rec.Code != http.StatusOK {
							t.Errorf("status %d", rec.Code)
							return
						}
						etag, body := rec.Header().Get("Etag"), rec.Body.String()
						var wire portal.ViewWire
						if err := json.Unmarshal(rec.Body.Bytes(), &wire); err != nil {
							t.Errorf("body not valid JSON: %v", err)
							return
						}
						if s.name == "itracker" && etagVersion(t, etag) != wire.Version {
							t.Errorf("ETag %s on a version-%d body", etag, wire.Version)
							return
						}
						mu.Lock()
						prev, seen := bodies[etag]
						bodies[etag] = body
						mu.Unlock()
						if seen && prev != body {
							t.Errorf("ETag %s served two different bodies", etag)
							return
						}
						select {
						case <-stop:
							return
						default:
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}
