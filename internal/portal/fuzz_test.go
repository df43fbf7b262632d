package portal

import (
	"bytes"
	"encoding/json"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"testing"

	"p4p/internal/core"
	"p4p/internal/itracker"
	"p4p/internal/topology"
)

// FuzzFromWire feeds arbitrary JSON through the wire decoder and
// checks the decode invariants the selector depends on: an accepted
// view is square over its PID list, every distance is either finite in
// [0, MaxDistance] or exactly +Inf (never NaN, never negative), and a
// decoded view survives an encode/decode round trip unchanged.
func FuzzFromWire(f *testing.F) {
	f.Add([]byte(`{"pids":[0,1],"matrix":[[0,-1],[-1,0]],"version":3}`))
	f.Add([]byte(`{"pids":[0,1,2],"matrix":[[0,1.5,-1],[1.5,0,2],[-1,2,0]],"version":7}`))
	f.Add([]byte(`{"pids":[0],"matrix":[[0]],"version":1}`))
	f.Add([]byte(`{"pids":[0,1],"matrix":[[0,1e300],[2,0]]}`))
	f.Add([]byte(`{"pids":[0,1],"matrix":[[0,-0.9999999],[5e14,0]],"version":2}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var w ViewWire
		if err := json.Unmarshal(data, &w); err != nil {
			return
		}
		v, err := FromWire(&w)
		if err != nil {
			return
		}
		checkViewInvariants(t, v)
		rt, err := FromWire(ToWire(v))
		if err != nil {
			t.Fatalf("round trip rejected a decoded view: %v", err)
		}
		checkViewInvariants(t, rt)
		for i := range v.D {
			for j := range v.D[i] {
				a, b := v.D[i][j], rt.D[i][j]
				if math.IsInf(a, 1) != math.IsInf(b, 1) || (!math.IsInf(a, 1) && a != b) {
					t.Fatalf("round trip drifted at (%d,%d): %v -> %v", i, j, a, b)
				}
			}
		}
	})
}

func checkViewInvariants(t *testing.T, v *core.View) {
	t.Helper()
	if len(v.D) != len(v.PIDs) {
		t.Fatalf("accepted non-square view: %d rows for %d PIDs", len(v.D), len(v.PIDs))
	}
	for i, row := range v.D {
		if len(row) != len(v.PIDs) {
			t.Fatalf("accepted ragged row %d: %d columns for %d PIDs", i, len(row), len(v.PIDs))
		}
		for j, d := range row {
			switch {
			case math.IsNaN(d):
				t.Fatalf("NaN leaked through decode at (%d,%d)", i, j)
			case math.IsInf(d, 1):
				// unreachable; fine
			case d < 0:
				t.Fatalf("negative finite distance %v at (%d,%d)", d, i, j)
			case d > MaxDistance:
				t.Fatalf("out-of-range distance %v at (%d,%d)", d, i, j)
			}
		}
	}
}

// formatPairs renders pairs in ParsePairs' input syntax.
func formatPairs(pairs []PIDPair) string {
	parts := make([]string, len(pairs))
	for i, p := range pairs {
		parts[i] = strconv.Itoa(int(p.Src)) + "-" + strconv.Itoa(int(p.Dst))
	}
	return strings.Join(parts, ",")
}

// FuzzParsePairs checks the GET batch parser: it never panics, and
// whatever it accepts re-formats and parses back to the same pairs.
func FuzzParsePairs(f *testing.F) {
	for _, s := range []string{"0-1", "0-1,1-2,2-0", "", "0_1", "a-b", "1-", "-1-2", "1--2", "+3-4", "0-1,", "99999999999999999999-0"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		pairs, err := ParsePairs(s)
		if err != nil {
			return
		}
		again, err := ParsePairs(formatPairs(pairs))
		if err != nil {
			t.Fatalf("re-formatted pairs %q rejected: %v", formatPairs(pairs), err)
		}
		if !slices.Equal(pairs, again) {
			t.Fatalf("round trip drifted: %v -> %v", pairs, again)
		}
	})
}

// FuzzBatchBody posts arbitrary bodies to a live batch endpoint: the
// handler answers 200 or 400, never 500 or a panic, and every body the
// parser accepts re-encodes and parses back to the same pairs.
func FuzzBatchBody(f *testing.F) {
	for _, s := range []string{
		`{"pairs":[{"src":0,"dst":1}]}`,
		`{"pairs":[{"src":0,"dst":1},{"src":2,"dst":0}]}`,
		`{"pairs":[]}`,
		`{"pairs":[{"src":0,"dst":1}]}garbage`,
		`{"pairs":[{"src":0,"dst":9999}]}`,
		`{"pairs":`,
		`null`,
		`{"pairs":[{"src":-1,"dst":1.5}]}`,
	} {
		f.Add([]byte(s))
	}
	h, _ := newBenchPortal(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/p4p/v1/distances/batch", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest {
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body.Bytes())
		}
		pairs, err := ParseBatchBody(bytes.NewReader(body))
		if err != nil {
			return
		}
		enc, err := json.Marshal(BatchRequestWire{Pairs: pairs})
		if err != nil {
			t.Fatal(err)
		}
		again, err := ParseBatchBody(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-encoded body %s rejected: %v", enc, err)
		}
		if !slices.Equal(pairs, again) {
			t.Fatalf("round trip drifted: %v -> %v", pairs, again)
		}
	})
}

// FuzzPIDQuery drives GET /p4p/v1/pid?ip=<input> through the handler
// over an Abilene iTracker: the status is 200, 400 or 404, never 5xx;
// it is 400 exactly when net.ParseIP rejects the input; and a 200
// carries the PID the PID map assigns the parsed address.
func FuzzPIDQuery(f *testing.F) {
	for _, s := range []string{"192.0.2.1", "banana", "10.300.0.1"} { // more seeds in testdata/fuzz
		f.Add(s)
	}
	g := topology.Abilene()
	pids := itracker.SyntheticPIDMap(g)
	h := NewHandler(itracker.New(itracker.Config{Name: "t", ASN: 11537},
		core.NewEngine(g, topology.ComputeRouting(g), core.Config{}), pids))
	f.Fuzz(func(t *testing.T, s string) {
		req := httptest.NewRequest(http.MethodGet, "/p4p/v1/pid?ip="+url.QueryEscape(s), nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		ip := net.ParseIP(s)
		switch {
		case rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest && rec.Code != http.StatusNotFound:
			t.Fatalf("ip %q: status %d: %s", s, rec.Code, rec.Body.Bytes())
		case (rec.Code == http.StatusBadRequest) != (ip == nil):
			t.Fatalf("ip %q: status %d, but net.ParseIP gives %v", s, rec.Code, ip)
		case rec.Code != http.StatusOK:
			return
		}
		var out PIDLookupWire
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("ip %q: 200 body %s: %v", s, rec.Body.Bytes(), err)
		}
		if want, ok := pids.Lookup(ip); !ok || out.PID != want {
			t.Fatalf("ip %q: served PID %d, PID map gives %d (found %v)", s, out.PID, want, ok)
		}
	})
}
