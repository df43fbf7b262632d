package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"p4p/internal/apptracker"
	"p4p/internal/core"
	"p4p/internal/topology"
)

type staticViews struct{ v *core.View }

func (s staticViews) ViewFor(int) apptracker.DistanceView { return s.v }

// panicOnce panics on its first Select and delegates afterwards.
type panicOnce struct {
	apptracker.Selector
	fired atomic.Bool
}

func (p *panicOnce) Select(self apptracker.Node, candidates []apptracker.Node, m int, rng *rand.Rand) []int {
	if p.fired.CompareAndSwap(false, true) {
		panic("selector fault")
	}
	return p.Selector.Select(self, candidates, m, rng)
}

func postSelect(t *testing.T, c *http.Client, url string, self topology.PID) (int, error) {
	t.Helper()
	req := selectRequest{
		Self: apptracker.Node{ID: 0, PID: self, ASN: 1},
		Candidates: []apptracker.Node{
			{ID: 1, PID: 0, ASN: 1}, {ID: 2, PID: 1, ASN: 1}, {ID: 3, PID: 2, ASN: 1}, {ID: 4, PID: 1, ASN: 1},
		},
		M: 3,
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var out selectResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decode 200 body: %v", err)
		}
		if len(out.Indices) != 3 {
			t.Errorf("self PID %d: %d indices, want 3", self, len(out.Indices))
		}
	}
	return resp.StatusCode, nil
}

// TestSelectSurvivesBadRequest sends POST /select requests that once
// wedged the appTracker, each followed by a valid one. A self PID the
// view lacks is a defined input (native fallback, 200), and a selector
// that panics must not leave the selection lock held.
func TestSelectSurvivesBadRequest(t *testing.T) {
	view := &core.View{
		PIDs: []topology.PID{0, 1, 2},
		D:    [][]float64{{0, 1, 4}, {1, 0, 2}, {4, 2, 0}},
	}
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	client := &http.Client{Timeout: 3 * time.Second}

	t.Run("pid-not-in-view", func(t *testing.T) {
		sel := &apptracker.P4P{Views: staticViews{view}}
		srv := httptest.NewServer(selectHandler(logger, sel, rand.New(rand.NewSource(1)), 20))
		defer srv.Close()
		for _, pid := range []topology.PID{9999, 1} {
			code, err := postSelect(t, client, srv.URL, pid)
			if err != nil || code != http.StatusOK {
				t.Fatalf("self PID %d: status %d, err %v; want 200", pid, code, err)
			}
		}
	})

	t.Run("selector-panic", func(t *testing.T) {
		// Served directly rather than through a server: a wedged handler
		// would block httptest.Server.Close for good.
		sel := &panicOnce{Selector: &apptracker.P4P{Views: staticViews{view}}}
		h := selectHandler(logger, sel, rand.New(rand.NewSource(1)), 20)
		body := `{"self":{"ID":0,"PID":1,"ASN":1},"candidates":[{"ID":1,"PID":0,"ASN":1},{"ID":2,"PID":2,"ASN":1}],"m":2}`
		serve := func() int {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/select", strings.NewReader(body)))
			return rec.Code
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Error("first selection did not panic")
				}
			}()
			serve()
		}()
		done := make(chan int, 1)
		go func() { done <- serve() }()
		select {
		case code := <-done:
			if code != http.StatusOK {
				t.Fatalf("request after a selector panic: status %d, want 200", code)
			}
		case <-time.After(3 * time.Second):
			t.Fatal("request after a selector panic did not return: selection lock still held")
		}
	})
}
