package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"p4p/internal/topology"
)

// buildAppTracker compiles cmd/apptracker for the announce workload.
func buildAppTracker(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "apptracker")
	out, err := exec.Command("go", "build", "-o", bin, "p4p/cmd/apptracker").CombinedOutput()
	if err != nil {
		t.Fatalf("build apptracker: %v\n%s", err, out)
	}
	return bin
}

// TestWorkloadsShort runs every workload briefly, untraced and traced,
// and checks that each run prints every metric by name with its unit,
// ends in the JSON summary, and fails no operation.
func TestWorkloadsShort(t *testing.T) {
	app := buildAppTracker(t)
	for _, name := range []string{"announce", "churn", "swarm", "flash-crowd"} {
		for _, traced := range []bool{false, true} {
			o := options{workload: name, seed: 7, seconds: time.Second, trace: traced, apptracker: app, out: t.TempDir()}
			res, err := workloads[name](context.Background(), o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			var buf bytes.Buffer
			if err := report(&buf, o, res); err != nil {
				t.Fatalf("%s trace=%v: report: %v", name, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var s summary
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
				t.Fatalf("%s trace=%v: last line is not the summary: %v", name, traced, err)
			}
			if !s.Correct || s.Failed != 0 || s.Attempted < 1 || res.values["e2e.failed_frac"] != 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", name, traced, s.Correct, s.Failed, s.Attempted)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(s.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, traced, len(s.Metrics), len(defs))
			}
			text := buf.String()
			for _, m := range append(defs, res.named...) {
				if got, ok := s.Metrics[m.name]; ok && got.Unit != m.unit {
					t.Errorf("%s: metric %s has unit %q, want %q", name, m.name, got.Unit, m.unit)
				}
				if !strings.Contains(text, m.name+" ") || !strings.Contains(text, " "+m.unit+"\n") {
					t.Errorf("%s trace=%v: %s [%s] not printed", name, traced, m.name, m.unit)
				}
			}
			if !traced && s.Metrics["op_p50_ms"].Value <= 0 {
				t.Errorf("%s: op_p50_ms is %v", name, s.Metrics["op_p50_ms"].Value)
			}
		}
	}
}

// TestSimSeeds checks that a simulation reproduces itself on one seed
// and places clients differently on another.
func TestSimSeeds(t *testing.T) {
	spec := simSpec{graph: topology.Abilene, leechers: 40, fileBytes: 8 << 20}
	g := spec.graph()
	r := topology.ComputeRouting(g)
	a := simulate(spec, g, r, 3, nil).res
	b := simulate(spec, g, r, 3, nil).res
	c := simulate(spec, g, r, 4, nil).res
	if _, err := checkSim(a, spec.leechers, spec.fileBytes); err != nil {
		t.Fatalf("seed 3: %v", err)
	}
	if err := sameSim(a, b); err != nil {
		t.Errorf("seed 3 twice: %v", err)
	}
	moved := false
	for i := range a.Clients {
		if a.Clients[i].PID != c.Clients[i].PID {
			moved = true
		}
	}
	if !moved {
		t.Errorf("seeds 3 and 4 placed every client on the same PID")
	}
}

// TestSelfTime checks self times against overlapping children, as the
// router's concurrent shard fetches produce.
func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	rc := newRecorder()
	rc.spans = []span{
		{id: 1, op: 1, name: "portal.client", start: 0, end: 10 * ms},
		{id: 2, parent: 1, op: 1, name: "federation.serve", start: 1 * ms, end: 9 * ms},
		{id: 3, parent: 2, op: 1, name: "net.http", start: 2 * ms, end: 5 * ms},
		{id: 4, parent: 2, op: 1, name: "net.http", start: 4 * ms, end: 7 * ms},
	}
	a := rc.analyze("portal.client")
	if got := a.selfP50("federation.serve"); got != 3000 {
		t.Errorf("federation.serve self = %vus, want 3000", got)
	}
	if got := a.selfP50("portal.client"); got != 2000 {
		t.Errorf("portal.client self = %vus, want 2000", got)
	}
	// net.http is not a repository layer: its 5 ms are unattributed.
	if len(a.opRemainder) != 1 || a.opRemainder[0] != 5000 {
		t.Errorf("remainder = %v, want [5000]", a.opRemainder)
	}
	if got := a.without("portal.client", "federation.serve"); len(got) != 1 || got[0] != 2000 {
		t.Errorf("client without serve = %v, want [2000]", got)
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json lists exactly the metrics
// this program reports, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind string
		got  []struct{ Name, Unit string }
		want []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s lists %d metrics, the program reports %d", c.kind, len(c.got), len(c.want))
			continue
		}
		for i, m := range c.want {
			if c.got[i].Name != m.name || c.got[i].Unit != m.unit {
				t.Errorf("%s[%d] = %s [%s], the program reports %s [%s]", c.kind, i, c.got[i].Name, c.got[i].Unit, m.name, m.unit)
			}
		}
	}
}
