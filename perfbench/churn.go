package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"p4p/internal/core"
	"p4p/internal/federation"
	"p4p/internal/itracker"
	"p4p/internal/portal"
	"p4p/internal/topology"
)

const (
	churnWorkers = 2
	churnSetups  = 31
	churnShards  = 3
	// The router's TTL sits well below the update interval, so
	// propagation measures refresh, recompute, merge and fetch work
	// rather than a timer.
	churnRouterTTL   = 5 * time.Millisecond
	churnUpdateEvery = 100 * time.Millisecond
	// churnLoadFrac bounds the seeded per-link loads as a share of
	// capacity.
	churnLoadFrac = 0.9
)

// churnStack is ISP-B served as a federation: one engine behind three
// ServePIDs shard portals, a federation router over them with every
// shard-crossing link as a circuit, and the fleet's portal clients.
type churnStack struct {
	trackers []*itracker.Server
	shards   []*server
	names    []string
	circuits []federation.Circuit
	router   *federation.Router
	front    *server
	fleet    []*portal.Client
	shardHC  *http.Client
}

// startChurn builds the stack and returns once every fleet client has
// fetched the merged view and the router's /readyz answers 200. With a
// recorder, shard portals, router and clients are wrapped in spans.
func startChurn(ctx context.Context, g *topology.Graph, r *topology.Routing, rc *recorder) (*churnStack, error) {
	eng := core.NewEngine(g, r, core.Config{})
	pids := g.AggregationPIDs()
	st := &churnStack{}
	shardOf := map[topology.PID]int{}
	var cfgs []federation.ShardConfig
	for i := 0; i < churnShards; i++ {
		part := pids[i*len(pids)/churnShards : (i+1)*len(pids)/churnShards]
		name := fmt.Sprintf("shard%d", i)
		for _, p := range part {
			shardOf[p] = i
		}
		tr := itracker.New(itracker.Config{Name: name, ASN: g.Node(part[0]).ASN, ServePIDs: part}, eng, nil)
		var h http.Handler = portal.NewHandler(tr)
		if rc != nil {
			h = &spanHandler{rc: rc, name: "portal.serve", classify: true, inner: h}
		}
		srv, err := serve(h)
		if err != nil {
			st.stop()
			return nil, err
		}
		st.trackers = append(st.trackers, tr)
		st.shards = append(st.shards, srv)
		st.names = append(st.names, name)
		cfgs = append(cfgs, federation.ShardConfig{Name: name, BaseURL: srv.url})
	}
	for _, l := range g.Links() {
		a, b := shardOf[l.Src], shardOf[l.Dst]
		if a != b && l.Src < l.Dst { // one circuit per duplex pair
			st.circuits = append(st.circuits, federation.Circuit{
				A: st.names[a], APID: l.Src, B: st.names[b], BPID: l.Dst, Cost: eng.Price(l.ID),
			})
		}
	}

	tmpl := portal.NewClient("", "")
	st.shardHC = &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 2}}
	tmpl.HTTPClient = st.shardHC
	if rc != nil {
		tmpl.HTTPClient = &http.Client{Timeout: 10 * time.Second,
			Transport: &spanTransport{rc: rc, name: "federation.shard_fetch", base: st.shardHC.Transport}}
	}
	rt, err := federation.NewRouter(federation.Config{Shards: cfgs, Circuits: st.circuits, TTL: churnRouterTTL, Client: tmpl})
	if err != nil {
		st.stop()
		return nil, err
	}
	st.router = rt
	var h http.Handler = rt
	if rc != nil {
		h = &spanHandler{rc: rc, name: "federation.serve", inner: h}
	}
	if st.front, err = serve(h); err != nil {
		st.stop()
		return nil, err
	}
	for i := 0; i < churnWorkers; i++ {
		c := portal.NewClient(st.front.url, "")
		c.HTTPClient = newHTTPClient()
		if rc != nil {
			c.HTTPClient.Transport = &spanTransport{rc: rc, name: "net.http", base: c.HTTPClient.Transport}
		}
		st.fleet = append(st.fleet, c)
		v, err := c.DistancesContext(ctx)
		if err == nil {
			err = checkMerged(v, len(pids))
		}
		if err != nil {
			st.stop()
			return nil, fmt.Errorf("first fetch: %w", err)
		}
	}
	if err := st.readyz(ctx); err != nil {
		st.stop()
		return nil, err
	}
	return st, nil
}

func (st *churnStack) readyz(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, st.front.url+"/readyz", nil)
	if err != nil {
		return err
	}
	resp, err := st.fleet[0].HTTPClient.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("router /readyz: status %d", resp.StatusCode)
	}
	return nil
}

func (st *churnStack) stop() {
	if st.front != nil {
		st.front.close()
	}
	for _, s := range st.shards {
		s.close()
	}
	for _, c := range st.fleet {
		c.HTTPClient.CloseIdleConnections()
	}
	if st.shardHC != nil {
		st.shardHC.CloseIdleConnections()
	}
}

// checkMerged verifies a fetched merged view: a square over n PIDs
// with no NaN.
func checkMerged(v *core.View, n int) error {
	if len(v.PIDs) != n || len(v.D) != n {
		return fmt.Errorf("merged view has %d PIDs and %d rows, want %d", len(v.PIDs), len(v.D), n)
	}
	for i, row := range v.D {
		if len(row) != n {
			return fmt.Errorf("merged view row %d has %d entries, want %d", i, len(row), n)
		}
		for _, d := range row {
			if math.IsNaN(d) {
				return fmt.Errorf("merged view row %d holds NaN", i)
			}
		}
	}
	return nil
}

// propagation times each price update from ObserveAndUpdate returning
// to the first fleet fetch whose merged version reaches the sum of the
// shard versions after it.
type propagation struct {
	// next is the lowest pending target, math.MaxInt64 when none, so a
	// fetch checks it without the lock.
	next    atomic.Int64
	mu      sync.Mutex
	pending []pendingUpdate
	msecs   []float64
}

type pendingUpdate struct {
	at     time.Time
	target int
}

func newPropagation() *propagation {
	p := &propagation{}
	p.next.Store(math.MaxInt64)
	return p
}

func (p *propagation) updated(at time.Time, target int) {
	p.mu.Lock()
	p.pending = append(p.pending, pendingUpdate{at, target})
	p.next.Store(int64(p.pending[0].target))
	p.mu.Unlock()
}

func (p *propagation) seen(version int, at time.Time) {
	if int64(version) < p.next.Load() {
		return
	}
	p.mu.Lock()
	n := 0
	for n < len(p.pending) && p.pending[n].target <= version {
		p.msecs = append(p.msecs, float64(at.Sub(p.pending[n].at))/float64(time.Millisecond))
		n++
	}
	p.pending = p.pending[n:]
	if len(p.pending) > 0 {
		p.next.Store(int64(p.pending[0].target))
	} else {
		p.next.Store(math.MaxInt64)
	}
	p.mu.Unlock()
}

func (p *propagation) caughtUp() bool { return p.next.Load() == math.MaxInt64 }

// take returns and clears the recorded propagation times.
func (p *propagation) take() []float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := p.msecs
	p.msecs = nil
	return out
}

// churnLoad runs the fleet closed-loop for d. Each fetch is checked
// when it returns a view the client has not seen, and its version must
// never go down. full counts fetches that returned a new view.
func churnLoad(ctx context.Context, st *churnStack, d time.Duration, rc *recorder, prop *propagation, npids int) (s loadStats, full int64) {
	type workerOut struct {
		ops                     []opSample
		attempted, failed, full int64
	}
	outs := make([]workerOut, len(st.fleet))
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for w := range st.fleet {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := st.fleet[w]
			out := &outs[w]
			var last *core.View
			lastVer := math.MinInt
			for time.Now().Before(deadline) && ctx.Err() == nil {
				out.attempted++
				sp := rc.begin("portal.client", rc.newOp(), 0)
				t := time.Now()
				v, err := c.DistancesContext(withSpan(ctx, sp))
				lat := time.Since(t)
				rc.end(sp)
				if err == nil && v != last {
					out.full++
					err = checkMerged(v, npids)
					if err == nil && v.Version < lastVer {
						err = fmt.Errorf("merged version went from %d to %d", lastVer, v.Version)
					}
					last, lastVer = v, v.Version
				}
				if err != nil {
					out.failed++
					if out.failed <= 3 {
						logCheck("churn fetch: %v", err)
					}
					continue
				}
				prop.seen(v.Version, t.Add(lat))
				out.ops = append(out.ops, opSample{done: t.Add(lat).Sub(start), latUS: us(lat)})
			}
		}(w)
	}
	wg.Wait()
	s.elapsed = time.Since(start)
	for _, o := range outs {
		s.ops = append(s.ops, o.ops...)
		s.attempted += o.attempted
		s.failed += o.failed
		full += o.full
	}
	return s, full
}

// updater drives seeded price updates at churnUpdateEvery until stop
// is closed. With recording on, before each update whose predecessor
// has propagated, it also replays federation.Merge on the three shard
// views.
type updater struct {
	st   *churnStack
	rng  *rand.Rand
	rc   *recorder
	prop *propagation

	mu     sync.Mutex
	timing []float64 // ObserveAndUpdate durations, µs
}

func (u *updater) run(ctx context.Context, stop <-chan struct{}, links []topology.Link) {
	loads := make([]float64, len(links))
	tick := time.NewTicker(churnUpdateEvery)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		if u.rc.recording() && u.prop.caughtUp() {
			u.replayMerge()
		}
		for i, l := range links {
			loads[i] = u.rng.Float64() * churnLoadFrac * l.CapacityBps
		}
		sp := u.rc.begin("itracker.update", u.rc.newOp(), 0)
		t := time.Now()
		u.st.trackers[0].ObserveAndUpdate(loads)
		done := time.Now()
		u.rc.end(sp)
		target := 0
		for _, tr := range u.st.trackers {
			v, err := tr.ViewVersion("")
			if err != nil {
				logCheck("churn: shard version: %v", err)
				continue
			}
			target += v
		}
		u.prop.updated(done, target)
		u.mu.Lock()
		u.timing = append(u.timing, us(done.Sub(t)))
		u.mu.Unlock()
	}
}

// replayMerge times federation.Merge on the shard views the router
// already fetched (each tracker's cached view for the current version).
func (u *updater) replayMerge() {
	views := make([]federation.ShardView, len(u.st.trackers))
	for i, tr := range u.st.trackers {
		v, err := tr.Distances("")
		if err != nil {
			logCheck("churn: shard view: %v", err)
			return
		}
		views[i] = federation.ShardView{Name: u.st.names[i], View: v}
	}
	sp := u.rc.begin("federation.merge", u.rc.newOp(), 0)
	_, err := federation.Merge(views, u.st.circuits)
	u.rc.end(sp)
	if err != nil {
		logCheck("churn: merge replay: %v", err)
	}
}

// finalCheck compares, once load and updates have stopped, the router's
// merged view against federation.Merge of the shard views fetched
// directly from the shard portals.
func (st *churnStack) finalCheck(ctx context.Context) error {
	if err := sleepCtx(ctx, 3*churnRouterTTL); err != nil {
		return err
	}
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	fetch := func(url string) (*core.View, error) {
		c := portal.NewClient(url, "")
		c.HTTPClient = hc
		return c.DistancesContext(ctx)
	}
	got, err := fetch(st.front.url)
	if err != nil {
		return err
	}
	views := make([]federation.ShardView, len(st.shards))
	for i, s := range st.shards {
		v, err := fetch(s.url)
		if err != nil {
			return err
		}
		views[i] = federation.ShardView{Name: st.names[i], View: v}
	}
	want, err := federation.Merge(views, st.circuits)
	if err != nil {
		return err
	}
	if got.Version != want.Version || len(got.PIDs) != len(want.PIDs) {
		return fmt.Errorf("router view v%d over %d PIDs, direct merge v%d over %d", got.Version, len(got.PIDs), want.Version, len(want.PIDs))
	}
	for i := range want.PIDs {
		if got.PIDs[i] != want.PIDs[i] {
			return fmt.Errorf("router PID %d is %d, direct merge has %d", i, got.PIDs[i], want.PIDs[i])
		}
		for j := range want.D[i] {
			if got.D[i][j] != want.D[i][j] {
				return fmt.Errorf("router D[%d][%d] = %v, direct merge %v", i, j, got.D[i][j], want.D[i][j])
			}
		}
	}
	return nil
}

// routerCounts sums the router's per-shard refreshes and failures.
func (st *churnStack) routerCounts() (refreshes, failures int64) {
	for _, s := range st.router.Stats().Shards {
		refreshes += s.Refreshes
		failures += s.Failures
	}
	return refreshes, failures
}

func runChurn(ctx context.Context, o options) (*result, error) {
	g := topology.ISPB()
	r := topology.ComputeRouting(g)
	npids := len(g.AggregationPIDs())
	res := newResult()
	var rc *recorder
	measured := o.seconds
	if o.trace {
		rc = newRecorder()
		measured = o.seconds / 2
	}

	var setups []float64
	var st *churnStack
	for i := 0; i < churnSetups; i++ {
		t := time.Now()
		var err error
		if st, err = startChurn(ctx, g, r, rc); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		if i < churnSetups-1 {
			st.stop()
		}
	}
	defer st.stop()
	res.values["setup_s"] = quantile(setups, 0.5)

	prop := newPropagation()
	up := &updater{st: st, rng: rand.New(rand.NewSource(o.seed)), rc: rc, prop: prop}
	stop := make(chan struct{})
	var upDone sync.WaitGroup
	upDone.Add(1)
	go func() {
		defer upDone.Done()
		up.run(ctx, stop, g.Links())
	}()
	var stopOnce sync.Once
	stopUpdates := func() {
		stopOnce.Do(func() {
			close(stop)
			upDone.Wait()
		})
	}
	defer stopUpdates()

	wu, _ := churnLoad(ctx, st, warmup, nil, prop, npids)
	res.attempted += wu.attempted
	res.failed += wu.failed
	prop.take()
	ref0, fail0 := st.routerCounts()
	u0 := sampleUsage()
	ls, full := churnLoad(ctx, st, measured, nil, prop, npids)
	u1 := sampleUsage()
	propMS := prop.take()
	res.attempted += ls.attempted
	res.failed += ls.failed

	var traced loadStats
	if o.trace {
		rc.on.Store(true)
		var tfull int64
		traced, tfull = churnLoad(ctx, st, measured, rc, prop, npids)
		rc.on.Store(false)
		res.attempted += traced.attempted
		res.failed += traced.failed
		full += tfull
	}
	stopUpdates()
	ref1, fail1 := st.routerCounts()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res.attempted++
	if err := st.finalCheck(ctx); err != nil {
		res.fail(1, "churn final merge check: %v", err)
	}
	if len(ls.ops) == 0 {
		return nil, errors.New("no successful fetches")
	}

	res.setWindowed(ls)
	res.values["alloc_kb_per_op"] = float64(u1.allocBytes-u0.allocBytes) / 1024 / float64(len(ls.ops))
	res.setUsage(u0, u1)
	res.values["e2e.propagation_p50_ms"] = quantile(propMS, 0.5)
	res.values["e2e.propagation_p90_ms"] = quantile(propMS, 0.9)
	res.values["fetch_qps"] = res.values["ops_per_s"]
	res.values["fetch_p50_us"] = res.values["op_p50_ms"] * 1e3
	res.values["fetch_p90_us"] = res.values["op_p90_ms"] * 1e3
	res.values["fetch_p99_us"] = res.values["e2e.op_p99_ms"] * 1e3
	res.values["propagation_p50_ms"] = res.values["e2e.propagation_p50_ms"]
	res.values["propagation_p90_ms"] = res.values["e2e.propagation_p90_ms"]
	res.values["propagation_samples"] = float64(len(propMS))
	res.named = []metricDef{{"fetch_qps", "1/s"}, {"fetch_p50_us", "us"}, {"fetch_p90_us", "us"}, {"fetch_p99_us", "us"},
		{"propagation_p50_ms", "ms"}, {"propagation_p90_ms", "ms"}, {"propagation_samples", "count"}}
	if !o.trace {
		return res, nil
	}

	up.mu.Lock()
	updates := up.timing
	up.mu.Unlock()
	res.values["itracker.update_calls"] = float64(len(updates))
	res.values["itracker.update_us_p50"] = quantile(updates, 0.5)
	res.values["federation.refreshes"] = float64(ref1 - ref0)
	res.values["federation.failures"] = float64(fail1 - fail0)
	if n := len(ls.ops) + len(traced.ops); n > 0 {
		res.values["portal.client_full_frac"] = float64(full) / float64(n)
	}

	a := rc.analyze("portal.client")
	res.values["portal.serve_full_us_p50"] = a.inclP50("portal.serve_full")
	res.values["portal.serve_full_count"] = a.calls("portal.serve_full")
	res.values["portal.serve_304_us_p50"] = a.inclP50("portal.serve_304")
	res.values["portal.serve_304_count"] = a.calls("portal.serve_304")
	res.values["portal.client_self_us_p50"] = quantile(a.without("portal.client", "federation.serve"), 0.5)
	res.values["federation.serve_us_p50"] = a.inclP50("federation.serve")
	res.values["federation.shard_fetch_us_p50"] = a.inclP50("federation.shard_fetch")
	res.values["federation.shard_fetches"] = a.calls("federation.shard_fetch")
	res.values["federation.merge_us_p50"] = a.inclP50("federation.merge")
	a.setRemainder(res)
	if p50 := res.values["fetch_p50_us"]; p50 > 0 {
		_, tp50, _ := traced.quiet()
		res.values["trace.overhead_frac"] = tp50*1e3/p50 - 1
	}
	res.table = a.table("churn (portal.client: fleet fetches; itracker.update, federation.merge: own operations)")
	return res, rc.write(o.out, o.workload)
}
