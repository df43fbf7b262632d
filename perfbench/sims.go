package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"p4p/internal/apptracker"
	"p4p/internal/core"
	"p4p/internal/itracker"
	"p4p/internal/p2psim"
	"p4p/internal/topology"
)

// simSpec is one simulated swarm, wired as the experiments harness
// wires its P4P policy: an MLU iTracker (step 0.3) fed every 2 s,
// reselection every 20 s, a 32 KB TCP window, 100 Mbps access links, a
// 1 Gbps seed and joins spread over 300 s.
type simSpec struct {
	graph     func() *topology.Graph
	leechers  int
	fileBytes int64
}

const (
	simAccessBps  = 100e6
	simSeedBps    = 1e9
	simJoinWindow = 300.0
	// simRepeats runs are made of each placement. Every repeat must
	// reproduce the first run exactly, and the fastest run is the
	// placement's wall time, so a stall of the shared host during one
	// run does not move it.
	simRepeats = 2
	// simMinPlacements placements are simulated even if they take longer
	// than the measured time.
	simMinPlacements = 2
	// simSetups set-up-only builds per run join the simulations' own
	// set-up times in setup_s, whose median they steady.
	simSetups = 31
	// bytesTolerance bounds |TotalBytes - n*FileBytes| relative to
	// n*FileBytes. The simulator sums flow progress in float64, so the
	// total can miss the exact product by a few ulps; one missing piece
	// would be more than 1e-6 of it in either swarm.
	bytesTolerance = 1e-9
)

// swarmSpec is one Figure 7 cell: Abilene, 200 peers, a 256 MB file.
var swarmSpec = simSpec{graph: topology.Abilene, leechers: 200, fileBytes: 256 << 20}

// flashSpec is a flash crowd on ISP-B: 1,000 peers, a 12 MB file.
var flashSpec = simSpec{graph: topology.ISPB, leechers: 1000, fileBytes: 12 << 20}

func runSwarm(ctx context.Context, o options) (*result, error) {
	return runSim(ctx, o, swarmSpec)
}

func runFlashCrowd(ctx context.Context, o options) (*result, error) {
	return runSim(ctx, o, flashSpec)
}

// simRun is one measured simulation.
type simRun struct {
	seed        int64
	setup, wall time.Duration
	allocBytes  uint64
	res         *p2psim.Result
}

// trackerViews serves the selector from an in-process iTracker.
type trackerViews struct{ tr *itracker.Server }

func (v trackerViews) ViewFor(int) apptracker.DistanceView {
	view, err := v.tr.Distances("")
	if err != nil {
		return nil
	}
	return view
}

// spanSelector times Select calls as children of the span parent
// points at, and points views' spans at each Select.
type spanSelector struct {
	inner  apptracker.Selector
	rc     *recorder
	views  *spanViews
	parent *span
}

func (s *spanSelector) Name() string { return s.inner.Name() }

func (s *spanSelector) Select(self apptracker.Node, candidates []apptracker.Node, m int, rng *rand.Rand) []int {
	sp := s.rc.begin("apptracker.select", s.parent.op, s.parent.id)
	s.views.parent = sp
	out := s.inner.Select(self, candidates, m, rng)
	s.rc.end(sp)
	return out
}

// builtSim is a simulation ready to run, and the span its selector and
// measurement hook open their spans under once it runs.
type builtSim struct {
	sim   *p2psim.Sim
	runSp *span
}

// buildSim sets one swarm up on seed. With a recorder the selector, its
// views and the measurement hook are wrapped in spans.
func buildSim(spec simSpec, g *topology.Graph, r *topology.Routing, seed int64, rc *recorder) builtSim {
	asn := g.Node(0).ASN
	tr := itracker.New(itracker.Config{Name: g.Name, ASN: asn},
		core.NewEngine(g, r, core.Config{Objective: core.MinimizeMLU, StepSize: 0.3}), nil)
	runSp := new(span)
	var sel apptracker.Selector = &apptracker.P4P{Views: trackerViews{tr}, Config: apptracker.P4PConfig{Gamma: 1}}
	onMeasure := func(now float64, rates []float64) { tr.ObserveAndUpdate(rates) }
	if rc != nil {
		views := &spanViews{inner: trackerViews{tr}, rc: rc, name: "itracker.view"}
		sel = &spanSelector{
			inner:  &apptracker.P4P{Views: views, Config: apptracker.P4PConfig{Gamma: 1}},
			rc:     rc,
			views:  views,
			parent: runSp,
		}
		onMeasure = func(now float64, rates []float64) {
			sp := rc.begin("itracker.update", runSp.op, runSp.id)
			tr.ObserveAndUpdate(rates)
			rc.end(sp)
		}
	}
	sim := p2psim.New(p2psim.Config{
		Graph:            g,
		Routing:          r,
		Selector:         sel,
		Seed:             seed,
		FileBytes:        spec.fileBytes,
		SampleInterval:   2,
		TCPWindowBytes:   32 << 10,
		ReselectInterval: 20,
		MeasureInterval:  2,
		OnMeasure:        onMeasure,
	})
	placeClients(sim, g, asn, spec.leechers, rand.New(rand.NewSource(seed+1)))
	return builtSim{sim: sim, runSp: runSp}
}

// simulate sets up and runs one swarm on seed, after a GC so each run
// starts from the same heap.
func simulate(spec simSpec, g *topology.Graph, r *topology.Routing, seed int64, rc *recorder) simRun {
	runtime.GC()
	a0 := sampleUsage().allocBytes
	op := rc.newOp()
	root := rc.begin("bench.sim", op, 0)
	t0 := time.Now()
	setupSp := rc.begin("p2psim.setup", op, root.id)
	b := buildSim(spec, g, r, seed, rc)
	rc.end(setupSp)
	setup := time.Since(t0)

	*b.runSp = rc.begin("p2psim.run", op, root.id)
	res := b.sim.Run()
	rc.end(*b.runSp)
	wall := time.Since(t0)
	rc.end(root)
	return simRun{seed: seed, setup: setup, wall: wall, allocBytes: sampleUsage().allocBytes - a0, res: res}
}

// placeClients adds a seed at the first PID and n leechers placed by
// population weight with joins spread evenly over the join window, as
// the experiments harness does.
func placeClients(s *p2psim.Sim, g *topology.Graph, asn, n int, rng *rand.Rand) {
	pids := g.AggregationPIDs()
	s.AddClient(p2psim.ClientSpec{PID: pids[0], ASN: asn, UpBps: simSeedBps, DownBps: simSeedBps, IsSeed: true, Class: "seed"})
	cum := make([]float64, len(pids))
	total := 0.0
	for i, w := range populationWeights(g, pids) {
		total += w
		cum[i] = total
	}
	for i := 0; i < n; i++ {
		k := sort.SearchFloat64s(cum, rng.Float64()*total)
		if k >= len(pids) {
			k = len(pids) - 1
		}
		s.AddClient(p2psim.ClientSpec{
			PID: pids[k], ASN: asn, UpBps: simAccessBps, DownBps: simAccessBps,
			JoinAt: simJoinWindow * float64(i) / float64(n),
		})
	}
}

// populationWeights is the experiments harness's placement profile:
// Abilene metros by population, a Zipf profile elsewhere.
func populationWeights(g *topology.Graph, pids []topology.PID) []float64 {
	abilene := map[string]float64{
		"NewYork": 0.22, "WashingtonDC": 0.18, "Chicago": 0.12,
		"LosAngeles": 0.12, "Atlanta": 0.09, "Indianapolis": 0.05,
		"Houston": 0.06, "Denver": 0.05, "KansasCity": 0.04,
		"Seattle": 0.04, "Sunnyvale": 0.03,
	}
	out := make([]float64, len(pids))
	for i, pid := range pids {
		if w, ok := abilene[g.Node(pid).Name]; ok && g.Name == "Abilene" {
			out[i] = w
			continue
		}
		out[i] = 1 / float64(i+1)
	}
	return out
}

// checkSim verifies a finished swarm: every leecher completed and the
// bytes delivered are n whole files, within bytesTolerance. It returns
// the relative deviation of the delivered bytes.
func checkSim(res *p2psim.Result, n int, fileBytes int64) (float64, error) {
	done := 0
	for _, c := range res.Clients {
		if c.IsSeed {
			continue
		}
		if !c.Done {
			return 0, fmt.Errorf("client %d did not complete", c.ID)
		}
		done++
	}
	if done != n {
		return 0, fmt.Errorf("%d leechers completed, want %d", done, n)
	}
	want := float64(n) * float64(fileBytes)
	dev := math.Abs(res.TotalBytes-want) / want
	if dev > bytesTolerance {
		return dev, fmt.Errorf("TotalBytes %v, want %v", res.TotalBytes, want)
	}
	return dev, nil
}

// sameSim reports where two runs of one seed differ in placement,
// completion times or per-link bytes.
func sameSim(a, b *p2psim.Result) error {
	if len(a.Clients) != len(b.Clients) || len(a.LinkBytes) != len(b.LinkBytes) {
		return fmt.Errorf("result shapes differ")
	}
	for i := range a.Clients {
		ca, cb := a.Clients[i], b.Clients[i]
		if ca.PID != cb.PID || ca.Done != cb.Done || ca.DoneAt != cb.DoneAt {
			return fmt.Errorf("client %d: pid %d done %v at %v vs pid %d done %v at %v",
				i, ca.PID, ca.Done, ca.DoneAt, cb.PID, cb.Done, cb.DoneAt)
		}
	}
	for i := range a.LinkBytes {
		if a.LinkBytes[i] != b.LinkBytes[i] {
			return fmt.Errorf("link %d carried %v vs %v bytes", i, a.LinkBytes[i], b.LinkBytes[i])
		}
	}
	return nil
}

// runSims simulates placements for about d: new placements from seeds
// until d/repeats has passed (at least min of them), then the same
// placements again in the same order until each has run repeats times.
// Spreading the runs of a placement over the phase keeps one stall of
// the shared host from reaching all of them. It checks each result, and
// each later run of a seed against its first run in first.
func runSims(ctx context.Context, spec simSpec, g *topology.Graph, r *topology.Routing, seeds func(i int) int64,
	repeats int, d time.Duration, min int, rc *recorder, first map[int64]*p2psim.Result, res *result) []simRun {
	var runs []simRun
	one := func(seed int64) {
		run := simulate(spec, g, r, seed, rc)
		res.attempted++
		dev, err := checkSim(run.res, spec.leechers, spec.fileBytes)
		res.values["total_bytes_rel_dev"] = math.Max(res.values["total_bytes_rel_dev"], dev)
		if prev, ok := first[seed]; ok && err == nil {
			err = sameSim(prev, run.res)
		} else if !ok {
			first[seed] = run.res
		}
		if err != nil {
			res.fail(1, "seed %d: %v", seed, err)
		}
		runs = append(runs, run)
	}
	var placed []int64
	start := time.Now()
	for i := 0; (i < min || time.Since(start) < d/time.Duration(repeats)) && ctx.Err() == nil; i++ {
		placed = append(placed, seeds(i))
		one(placed[i])
	}
	for k := 1; k < repeats; k++ {
		for _, seed := range placed {
			if ctx.Err() != nil {
				return runs
			}
			one(seed)
		}
	}
	return runs
}

// fastest returns the placement seeds of runs in order of first
// appearance and the fastest wall time of each.
func fastest(runs []simRun) ([]int64, map[int64]time.Duration) {
	var order []int64
	best := map[int64]time.Duration{}
	for _, run := range runs {
		w, ok := best[run.seed]
		if !ok {
			order = append(order, run.seed)
		}
		if !ok || run.wall < w {
			best[run.seed] = run.wall
		}
	}
	return order, best
}

func runSim(ctx context.Context, o options, spec simSpec) (*result, error) {
	g := spec.graph()
	r := topology.ComputeRouting(g)
	rng := rand.New(rand.NewSource(o.seed))
	var seedList []int64
	seeds := func(i int) int64 {
		for len(seedList) <= i {
			seedList = append(seedList, rng.Int63())
		}
		return seedList[i]
	}
	res := newResult()
	var setups []float64
	for i := 0; i < simSetups; i++ {
		// Like each simulation, each set-up starts from a collected heap.
		runtime.GC()
		t := time.Now()
		buildSim(spec, g, r, seeds(0), nil)
		setups = append(setups, time.Since(t).Seconds())
	}
	first := map[int64]*p2psim.Result{}
	measured := o.seconds
	if o.trace {
		measured = o.seconds / 2
	}
	u0 := sampleUsage()
	runs := runSims(ctx, spec, g, r, seeds, simRepeats, measured, simMinPlacements, nil, first, res)
	u1 := sampleUsage()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	var walls, allocs []float64
	for _, run := range runs {
		setups = append(setups, run.setup.Seconds())
		allocs = append(allocs, float64(run.allocBytes)/1024)
	}
	placements, best := fastest(runs)
	for _, seed := range placements {
		walls = append(walls, us(best[seed]))
	}
	res.values["setup_s"] = quantile(setups, 0.5)
	res.setOpLatency(walls, float64(len(walls))/(sum(walls)/1e6))
	res.values["alloc_kb_per_op"] = quantile(allocs, 0.5)
	res.setUsage(u0, u1)
	res.values["sim_wall_s"] = res.values["op_p50_ms"] / 1e3
	res.values["sim_alloc_mb"] = res.values["alloc_kb_per_op"] / 1024
	res.values["sims"] = float64(len(runs))
	res.values["placements"] = float64(len(placements))
	res.named = []metricDef{{"sim_wall_s", "s"}, {"sim_alloc_mb", "MB"}, {"sims", "count"}, {"placements", "count"}, {"total_bytes_rel_dev", "fraction"}}
	if !o.trace {
		return res, nil
	}

	// The traced half replays the untraced half's placements in order,
	// once each, so tracing overhead compares like with like and each
	// traced result must equal its untraced runs.
	rc := newRecorder()
	rc.on.Store(true)
	replay := func(i int) int64 { return placements[i%len(placements)] }
	traced := runSims(ctx, spec, g, r, replay, 1, measured, 1, rc, first, res)
	rc.on.Store(false)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Each traced run is compared with the mean of its placement's
	// untraced runs, not the fastest, since it ran once.
	mean := map[int64]float64{}
	for _, run := range runs {
		mean[run.seed] += run.wall.Seconds() / simRepeats
	}
	var plain, withSpans float64
	for _, run := range traced {
		withSpans += run.wall.Seconds()
		plain += mean[run.seed]
	}
	res.values["trace.overhead_frac"] = withSpans/plain - 1

	n := float64(len(traced))
	last := traced[len(traced)-1].res
	a := rc.analyze("bench.sim")
	res.values["apptracker.select_us_p50"] = a.inclP50("apptracker.select")
	res.values["apptracker.select_calls"] = a.calls("apptracker.select") / n
	res.values["apptracker.select_busy_s"] = a.busy("apptracker.select") / n
	res.values["itracker.view_busy_s"] = a.busy("itracker.view") / n
	res.values["itracker.update_us_p50"] = a.inclP50("itracker.update")
	res.values["itracker.update_calls"] = a.calls("itracker.update") / n
	res.values["p2psim.core_busy_s"] = a.selfBusy("p2psim.run") / n
	res.values["p2psim.completed"] = float64(len(last.CompletionTimes()))
	res.values["p2psim.bytes_mb"] = last.TotalBytes / (1 << 20)
	a.setRemainder(res)
	res.table = a.table(fmt.Sprintf("%s (bench.sim: one simulation; counts and busy seconds are per simulation in the metrics)", o.workload))
	return res, rc.write(o.out, o.workload)
}
