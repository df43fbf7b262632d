package apptracker

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"p4p/internal/core"
	"p4p/internal/topology"
)

// selectCase is one randomized P4P.Select input.
type selectCase struct {
	view       *core.View
	self       Node
	candidates []Node
	m          int
	cfg        P4PConfig
}

// randomSelectCase builds a case from r: 1..maxPIDs PIDs in unsorted
// order (sometimes spread wide enough that the index falls back from
// its dense lookup, sometimes with one repeated), distances mixing ties, zeros and +Inf,
// one to three ASNs, self sometimes among the candidates, m from 0 to
// above the candidate count, and gamma at its default, 1, 0.5 or 0.3.
// absent > 0 gives that many candidates PIDs the view lacks.
func randomSelectCase(r *rand.Rand, maxPIDs, maxCands, absent int) selectCase {
	n := 1 + r.Intn(maxPIDs)
	base := topology.PID(r.Intn(100) - 20)
	stride := topology.PID(1 + r.Intn(3))
	if r.Intn(8) == 0 {
		stride = 1 << 20
	}
	pids := make([]topology.PID, n)
	for i, k := range r.Perm(n) {
		pids[i] = base + topology.PID(k)*stride
	}
	if n > 1 && r.Intn(10) == 0 {
		// The wire format does not forbid a repeated PID; lookups
		// resolve it to its first row, as View.Index does.
		pids[r.Intn(n)] = pids[r.Intn(n)]
	}
	d := make([][]float64, n)
	for a := range d {
		d[a] = make([]float64, n)
		for b := range d[a] {
			if a == b {
				continue
			}
			switch r.Intn(6) {
			case 0:
				d[a][b] = math.Inf(1)
			case 1:
				d[a][b] = 0
			case 2:
				d[a][b] = float64(1 + r.Intn(3))
			default:
				d[a][b] = r.ExpFloat64() * 10
			}
		}
	}
	nASN := 1 + r.Intn(3)
	asn := func() int { return 100 + r.Intn(nASN) }
	c := selectCase{
		view: &core.View{PIDs: pids, D: d},
		self: Node{ID: 0, PID: pids[r.Intn(n)], ASN: asn()},
		cfg:  P4PConfig{Gamma: []float64{0, 1, 0.5, 0.3}[r.Intn(4)]},
	}
	if r.Intn(6) == 0 {
		c.cfg.UpperBoundIntraPID, c.cfg.UpperBoundInterPID = 0.4, 0.9
	}
	nc := r.Intn(maxCands + 1)
	for i := 0; i < nc; i++ {
		pid := pids[r.Intn(n)]
		if r.Intn(3) == 0 {
			pid = c.self.PID
		}
		c.candidates = append(c.candidates, Node{ID: i + 1, PID: pid, ASN: asn()})
	}
	for k := 0; k < absent && nc > 0; k++ {
		// PIDs just past the view's, so keys interleave with view PIDs.
		c.candidates[r.Intn(nc)].PID = base + topology.PID(n+r.Intn(4))*stride + 1
	}
	for k := r.Intn(3); k > 0 && nc > 0; k-- {
		c.candidates[r.Intn(nc)] = c.self
	}
	c.m = r.Intn(nc + 6)
	return c
}

// checkAgainstReference runs the case through p and the reference twice
// on rngs seeded alike (the second call hits p's warm index) and fails
// unless both return the same indices and leave the rngs in the same
// state.
func checkAgainstReference(t *testing.T, p *P4P, c selectCase, seed int64) {
	t.Helper()
	p.Views, p.Config = testViews{c.view}, c.cfg
	ref := &refP4P{Views: testViews{c.view}, Config: c.cfg}
	got, want := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	for call := 0; call < 2; call++ {
		g := p.Select(c.self, c.candidates, c.m, got)
		w := ref.Select(c.self, c.candidates, c.m, want)
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("seed %d call %d: Select = %v, reference = %v\ncase %+v", seed, call, g, w, c)
		}
	}
	if g, w := got.Int63(), want.Int63(); g != w {
		t.Fatalf("seed %d: next rng draw %d, reference %d (rng consumed differently)", seed, g, w)
	}
}

// TestP4PSelectMatchesReference is the differential oracle for the
// indexed selector: over 20k seeded random cases it must choose the
// same peers as the map-based reference by the same rng draws.
func TestP4PSelectMatchesReference(t *testing.T) {
	cases := 20000
	if testing.Short() {
		cases = 2000
	}
	p := &P4P{}
	for seed := int64(0); seed < int64(cases); seed++ {
		r := rand.New(rand.NewSource(seed))
		checkAgainstReference(t, p, randomSelectCase(r, 60, 90, 0), seed)
	}
}

// FuzzP4PSelect checks the indexed selector against the reference on
// fuzzer-chosen cases, and on the same cases with PIDs the view lacks
// (which the reference cannot take) that it returns in-range, distinct,
// non-self indices, as many as the candidates allow.
func FuzzP4PSelect(f *testing.F) {
	f.Add(int64(1), uint8(52), uint8(200), uint8(0))
	f.Add(int64(7), uint8(1), uint8(3), uint8(2))
	f.Add(int64(42), uint8(9), uint8(40), uint8(5))
	f.Add(int64(-3), uint8(60), uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, pids, cands, absent uint8) {
		maxPIDs := 1 + int(pids)%64
		p := &P4P{}
		c := randomSelectCase(rand.New(rand.NewSource(seed)), maxPIDs, int(cands), 0)
		checkAgainstReference(t, p, c, seed)

		c = randomSelectCase(rand.New(rand.NewSource(seed)), maxPIDs, int(cands), int(absent%8))
		p.Views, p.Config = testViews{c.view}, c.cfg
		sel := p.Select(c.self, c.candidates, c.m, rand.New(rand.NewSource(seed)))
		checkNoSelfNoDup(t, c.self, c.candidates, sel)
		others := 0
		for _, cand := range c.candidates {
			if cand.ID != c.self.ID {
				others++
			}
		}
		if want := max(0, min(c.m, others)); len(sel) != want {
			t.Fatalf("selected %d, want %d", len(sel), want)
		}
	})
}

// TestP4PSelectPIDNotInView pins Select on PIDs the view lacks, as a
// federated view that lost a shard does. A candidate's absent PID is
// unreachable: selection over a view without PID 3 matches selection
// over one where PID 3 is present at +Inf, draw for draw. An absent
// self PID leaves no distances to select by, so Select falls back to
// Random.
func TestP4PSelectPIDNotInView(t *testing.T) {
	inf := math.Inf(1)
	withUnreachable := &core.View{
		PIDs: []topology.PID{0, 1, 2, 3},
		D:    [][]float64{{0, 1, 5, inf}, {1, 0, 2, inf}, {5, 2, 0, inf}, {inf, inf, inf, 0}},
	}
	without := &core.View{
		PIDs: []topology.PID{0, 1, 2},
		D:    [][]float64{{0, 1, 5}, {1, 0, 2}, {5, 2, 0}},
	}
	self := Node{ID: 0, PID: 0, ASN: 1}
	cands := makeCandidates([]struct {
		pid topology.PID
		asn int
		n   int
	}{{0, 1, 6}, {1, 1, 5}, {2, 1, 5}, {3, 1, 8}, {1, 2, 4}, {3, 2, 6}, {3, 3, 3}})
	for _, m := range []int{5, 20, 40} {
		a, b := rand.New(rand.NewSource(int64(m))), rand.New(rand.NewSource(int64(m)))
		got := (&P4P{Views: testViews{without}}).Select(self, cands, m, a)
		want := (&P4P{Views: testViews{withUnreachable}}).Select(self, cands, m, b)
		if !reflect.DeepEqual(got, want) || a.Int63() != b.Int63() {
			t.Fatalf("m=%d: absent PID selected %v, unreachable PID %v", m, got, want)
		}
		checkNoSelfNoDup(t, self, cands, got)
	}

	lost := Node{ID: 0, PID: 9999, ASN: 1}
	a, b := rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
	got := (&P4P{Views: testViews{without}}).Select(lost, cands, 10, a)
	want := Random{}.Select(lost, cands, 10, b)
	if !reflect.DeepEqual(got, want) || a.Int63() != b.Int63() {
		t.Fatalf("self PID not in view: selected %v, Random %v", got, want)
	}
}

// asnViews serves a view per ASN block of 100.
type asnViews map[int]*core.View

func (v asnViews) ViewFor(asn int) DistanceView { return v[asn/100] }

// TestP4PSelectConcurrent shares one P4P among goroutines whose
// selections alternate between two views, so index replacement races
// with reads of the cached index and with lazy weight-row builds. Each
// goroutine must still choose what the reference chooses.
func TestP4PSelectConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	a, b := randomSelectCase(r, 40, 80, 0), randomSelectCase(r, 40, 80, 0)
	b.self.ASN += 100
	for i := range b.candidates {
		b.candidates[i].ASN += 100
	}
	views := asnViews{1: a.view, 2: b.view}
	p := &P4P{Views: views}
	ref := &refP4P{Views: views}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			got, want := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			for k := 0; k < 200; k++ {
				c := []selectCase{a, b}[k%2]
				g := p.Select(c.self, c.candidates, c.m, got)
				w := ref.Select(c.self, c.candidates, c.m, want)
				if !reflect.DeepEqual(g, w) {
					t.Errorf("goroutine %d call %d: Select = %v, reference = %v", seed, k, g, w)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

// ispBSelectBench is the cost pin's workload: the ISP-B view (52 PIDs)
// from a fresh engine, 1,000 same-AS candidates spread over its PIDs,
// and m = 20.
func ispBSelectBench(tb testing.TB) (*P4P, Node, []Node) {
	tb.Helper()
	g := topology.ISPB()
	e := core.NewEngine(g, topology.ComputeRouting(g), core.Config{})
	view := e.Matrix(g.AggregationPIDs())
	rng := rand.New(rand.NewSource(1))
	cands := make([]Node, 1000)
	for i := range cands {
		cands[i] = Node{ID: i + 1, PID: view.PIDs[rng.Intn(len(view.PIDs))], ASN: 1}
	}
	self := Node{ID: 0, PID: view.PIDs[0], ASN: 1}
	return &P4P{Views: testViews{view}}, self, cands
}

// selectSink keeps the benchmarked call from being optimized away.
var selectSink []int

func BenchmarkP4PSelect(b *testing.B) {
	p, self, cands := ispBSelectBench(b)
	rng := rand.New(rand.NewSource(2))
	p.Select(self, cands, 20, rng) // warm the index and weight row
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		selectSink = p.Select(self, cands, 20, rng)
	}
}

// selectAllocBudget is the measured warm count on ISP-B: the result
// slice. The map-based selector made 370 allocations here.
const selectAllocBudget = 1

// TestP4PSelectAllocs pins a warm Select (index and weight row built,
// scratch pooled) at selectAllocBudget.
func TestP4PSelectAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	p, self, cands := ispBSelectBench(t)
	rng := rand.New(rand.NewSource(2))
	p.Select(self, cands, 20, rng)
	allocs := testing.AllocsPerRun(200, func() {
		if len(p.Select(self, cands, 20, rng)) != 20 {
			t.Fatal("short selection")
		}
	})
	if allocs > selectAllocBudget {
		t.Fatalf("warm P4P.Select: %.1f allocs/op, want <= %d", allocs, selectAllocBudget)
	}
}
