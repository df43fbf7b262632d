package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"p4p/internal/apptracker"
	"p4p/internal/core"
	"p4p/internal/itracker"
	"p4p/internal/portal"
	"p4p/internal/topology"
)

const (
	announceM = 20
	// One closed-loop worker: the appTracker answers one selection at a
	// time and the client and the child take turns on the CPUs. With two
	// workers the two processes need both CPUs at once, and selections
	// per second then follow what other tenants of the host leave free.
	announceWorkers = 1
	announceSetups  = 31
	// announcePerSize distinct requests are generated per candidate-list
	// size; the workers cycle through them.
	announcePerSize = 64
	// replaySample requests are replayed in process by the traced run to
	// time P4P.Select and PortalViews.ViewFor.
	replaySample = 3000
)

// candidateSizes are the candidate-list lengths, in equal thirds.
var candidateSizes = [...]int{50, 200, 1000}

type selectRequest struct {
	Self       apptracker.Node   `json:"self"`
	Candidates []apptracker.Node `json:"candidates"`
	M          int               `json:"m"`
}

type selectResponse struct {
	Indices []int  `json:"indices"`
	Policy  string `json:"policy"`
}

type announceReq struct {
	req  selectRequest
	body []byte
}

// genAnnounce builds the request pool: self and candidate PIDs uniform
// over pids, candidate lists of 50, 200 or 1,000 peers in equal thirds,
// shuffled.
func genAnnounce(seed int64, pids []topology.PID, asn int) ([]announceReq, error) {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]announceReq, 0, len(candidateSizes)*announcePerSize)
	id := 0
	node := func() apptracker.Node {
		id++
		return apptracker.Node{ID: id, PID: pids[rng.Intn(len(pids))], ASN: asn}
	}
	for _, n := range candidateSizes {
		for k := 0; k < announcePerSize; k++ {
			r := selectRequest{Self: node(), M: announceM, Candidates: make([]apptracker.Node, n)}
			for i := range r.Candidates {
				r.Candidates[i] = node()
			}
			body, err := json.Marshal(r)
			if err != nil {
				return nil, err
			}
			reqs = append(reqs, announceReq{req: r, body: body})
		}
	}
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs, nil
}

// checkSelection verifies one answer: distinct in-range indices, exactly
// min(m, candidates) of them. seen is scratch of at least n entries.
func checkSelection(idx []int, n, m int, seen []bool) error {
	want := m
	if n < want {
		want = n
	}
	if len(idx) != want {
		return fmt.Errorf("%d indices for %d candidates, want %d", len(idx), n, want)
	}
	for i := range seen[:n] {
		seen[i] = false
	}
	for _, i := range idx {
		if i < 0 || i >= n || seen[i] {
			return fmt.Errorf("index %d out of range or repeated", i)
		}
		seen[i] = true
	}
	return nil
}

// announceStack is the in-process ISP-B portal and the appTracker child
// process answering selections off it.
type announceStack struct {
	portal *server
	cmd    *exec.Cmd
	exited chan error
	url    string
}

// startAnnounce serves the portal and starts the appTracker, returning
// once its /readyz answers 200, which needs a fetched portal view.
func startAnnounce(ctx context.Context, o options, g *topology.Graph, r *topology.Routing) (*announceStack, error) {
	tr := itracker.New(itracker.Config{Name: g.Name, ASN: g.Node(0).ASN}, core.NewEngine(g, r, core.Config{}), nil)
	ps, err := serve(portal.NewHandler(tr))
	if err != nil {
		return nil, err
	}
	var lastErr error
	// A free port can be taken between probing and the child binding
	// it; try a few.
	for attempt := 0; attempt < 3; attempt++ {
		addr, err := freePort()
		if err != nil {
			ps.close()
			return nil, err
		}
		cmd := exec.Command(o.apptracker, "-listen", addr, "-itracker", ps.url,
			"-seed", strconv.FormatInt(o.seed, 10), "-pprof")
		// Nil Stdout and Stderr are /dev/null. The child is killed if
		// the benchmark dies before stopping it.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			ps.close()
			return nil, fmt.Errorf("start apptracker: %w", err)
		}
		exited := make(chan error, 1)
		go func() { exited <- cmd.Wait() }()
		st := &announceStack{portal: ps, cmd: cmd, exited: exited, url: "http://" + addr}
		if lastErr = st.waitReady(ctx); lastErr == nil {
			return st, nil
		}
		st.stopChild()
	}
	ps.close()
	return nil, lastErr
}

func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// waitReady polls /readyz until 200, the child exiting, or 10 s.
func (st *announceStack) waitReady(ctx context.Context) error {
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-st.exited:
			st.exited <- err
			return fmt.Errorf("apptracker exited before ready: %v", err)
		default:
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, st.url+"/readyz", nil)
		if err != nil {
			return err
		}
		if resp, err := hc.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if err := sleepCtx(ctx, time.Millisecond); err != nil {
			return err
		}
	}
	return errors.New("apptracker not ready within 10s")
}

// stopChild ends the appTracker with SIGTERM, or SIGKILL after 5 s,
// and waits for it.
func (st *announceStack) stopChild() {
	_ = st.cmd.Process.Signal(syscall.SIGTERM)
	t := time.NewTimer(5 * time.Second)
	defer t.Stop()
	select {
	case <-st.exited:
	case <-t.C:
		_ = st.cmd.Process.Kill()
		<-st.exited
	}
}

func (st *announceStack) stop() {
	st.stopChild()
	st.portal.close()
}

// get fetches path from the appTracker.
func (st *announceStack) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, st.url+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return body, nil
}

// totalAlloc reads runtime.MemStats.TotalAlloc of the appTracker from
// its heap profile header.
func (st *announceStack) totalAlloc(ctx context.Context) (uint64, error) {
	body, err := st.get(ctx, "/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "# TotalAlloc = "); ok {
			return strconv.ParseUint(v, 10, 64)
		}
	}
	return 0, errors.New("heap profile has no TotalAlloc line")
}

// announceLoad runs announceWorkers closed-loop workers posting the
// pooled requests for d. With recording on, each request is the root
// span of its own operation.
func announceLoad(ctx context.Context, url string, reqs []announceReq, d time.Duration, rc *recorder, res *result) loadStats {
	type workerOut struct {
		ops               []opSample
		attempted, failed int64
	}
	outs := make([]workerOut, announceWorkers)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < announceWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			hc := newHTTPClient()
			defer hc.CloseIdleConnections()
			out := &outs[w]
			seen := make([]bool, candidateSizes[len(candidateSizes)-1])
			var buf bytes.Buffer
			for i := w * len(reqs) / announceWorkers; time.Now().Before(deadline) && ctx.Err() == nil; i++ {
				ar := &reqs[i%len(reqs)]
				out.attempted++
				sp := rc.begin("bench.announce", rc.newOp(), 0)
				t := time.Now()
				status, err := postSelect(ctx, hc, url, ar.body, &buf)
				lat := time.Since(t)
				rc.end(sp)
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("status %d", status)
				}
				if err == nil {
					var resp selectResponse
					if err = json.Unmarshal(buf.Bytes(), &resp); err == nil {
						if resp.Policy != "p4p" {
							err = fmt.Errorf("policy %q, want p4p", resp.Policy)
						} else {
							err = checkSelection(resp.Indices, len(ar.req.Candidates), ar.req.M, seen)
						}
					}
				}
				if err != nil {
					out.failed++
					if out.failed <= 3 {
						logCheck("announce: %v", err)
					}
					continue
				}
				out.ops = append(out.ops, opSample{done: t.Add(lat).Sub(start), latUS: us(lat)})
			}
		}(w)
	}
	wg.Wait()
	s := loadStats{elapsed: time.Since(start)}
	for _, o := range outs {
		s.ops = append(s.ops, o.ops...)
		s.attempted += o.attempted
		s.failed += o.failed
	}
	return s
}

// postSelect posts one selection and reads the whole response into buf.
func postSelect(ctx context.Context, hc *http.Client, url string, body []byte, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/select", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// spanViews times ViewFor calls of the selector it serves as children
// of the span in parent. The selector calls it on its own goroutine.
type spanViews struct {
	inner  apptracker.ViewProvider
	rc     *recorder
	name   string
	parent span
}

func (v *spanViews) ViewFor(asn int) apptracker.DistanceView {
	sp := v.rc.begin(v.name, v.parent.op, v.parent.id)
	dv := v.inner.ViewFor(asn)
	v.rc.end(sp)
	return dv
}

// replaySelect replays the first replaySample pooled requests through
// apptracker.P4P over a PortalViews on the same portal, timing Select
// and ViewFor as spans.
func replaySelect(ctx context.Context, portalURL string, asn int, reqs []announceReq, seed int64, rc *recorder, res *result) error {
	pv := apptracker.NewPortalViews(portal.NewClient(portalURL, ""), 30*time.Second)
	if pv.ViewFor(asn) == nil {
		return errors.New("replay: no portal view")
	}
	views := &spanViews{inner: pv, rc: rc, name: "apptracker.viewfor"}
	sel := &apptracker.P4P{Views: views}
	rng := rand.New(rand.NewSource(seed))
	seen := make([]bool, candidateSizes[len(candidateSizes)-1])
	for i := 0; i < replaySample && ctx.Err() == nil; i++ {
		ar := &reqs[i%len(reqs)]
		res.attempted++
		sp := rc.begin("apptracker.select", rc.newOp(), 0)
		views.parent = sp
		idx := sel.Select(ar.req.Self, ar.req.Candidates, ar.req.M, rng)
		rc.end(sp)
		if err := checkSelection(idx, len(ar.req.Candidates), ar.req.M, seen); err != nil {
			res.fail(1, "replay: %v", err)
		}
	}
	return ctx.Err()
}

func runAnnounce(ctx context.Context, o options) (*result, error) {
	if o.apptracker == "" {
		return nil, errors.New("-apptracker is required")
	}
	g := topology.ISPB()
	r := topology.ComputeRouting(g)
	asn := g.Node(0).ASN
	reqs, err := genAnnounce(o.seed, g.AggregationPIDs(), asn)
	if err != nil {
		return nil, err
	}
	res := newResult()

	var setups []float64
	var st *announceStack
	for i := 0; i < announceSetups; i++ {
		t := time.Now()
		st, err = startAnnounce(ctx, o, g, r)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		if i < announceSetups-1 {
			st.stop()
		}
	}
	defer st.stop()
	res.values["setup_s"] = quantile(setups, 0.5)

	var rc *recorder
	measured := o.seconds
	if o.trace {
		rc = newRecorder()
		measured = o.seconds / 2
	}
	wu := announceLoad(ctx, st.url, reqs, warmup, nil, res)
	res.attempted += wu.attempted
	res.failed += wu.failed
	alloc0, err := st.totalAlloc(ctx)
	if err != nil {
		return nil, err
	}
	u0 := sampleUsage()
	ls := announceLoad(ctx, st.url, reqs, measured, nil, res)
	u1 := sampleUsage()
	alloc1, err := st.totalAlloc(ctx)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res.attempted += ls.attempted
	res.failed += ls.failed
	res.setWindowed(ls)
	if n := len(ls.ops); n > 0 {
		res.values["alloc_kb_per_op"] = float64(alloc1-alloc0) / 1024 / float64(n)
	}
	res.setUsage(u0, u1)
	res.values["announce_qps"] = res.values["ops_per_s"]
	res.values["announce_p50_us"] = res.values["op_p50_ms"] * 1e3
	res.values["announce_p90_us"] = res.values["op_p90_ms"] * 1e3
	res.values["announce_p99_us"] = res.values["e2e.op_p99_ms"] * 1e3
	res.named = []metricDef{{"announce_qps", "1/s"}, {"announce_p50_us", "us"}, {"announce_p90_us", "us"}, {"announce_p99_us", "us"}}

	if !o.trace {
		return res, nil
	}
	rc.on.Store(true)
	traced := announceLoad(ctx, st.url, reqs, measured, rc, res)
	res.attempted += traced.attempted
	res.failed += traced.failed
	if err := replaySelect(ctx, st.portal.url, asn, reqs, o.seed, rc, res); err != nil {
		return nil, err
	}
	rc.on.Store(false)
	body, err := st.get(ctx, "/stats")
	if err != nil {
		return nil, err
	}
	var vs apptracker.ViewStats
	if err := json.Unmarshal(body, &vs); err != nil {
		return nil, fmt.Errorf("decode /stats: %w", err)
	}
	res.values["apptracker.refreshes"] = float64(vs.Refreshes)
	res.values["apptracker.stale_serves"] = float64(vs.StaleServes)
	res.values["apptracker.coalesces"] = float64(vs.Coalesces)

	a := rc.analyze("bench.announce")
	sel := a.inclP50("apptracker.select")
	res.values["apptracker.select_us_p50"] = sel
	res.values["apptracker.select_calls"] = a.calls("apptracker.select")
	res.values["apptracker.select_busy_s"] = a.busy("apptracker.select")
	res.values["apptracker.viewfor_us_p50"] = a.inclP50("apptracker.viewfor")
	// Nothing inside the child process is spanned: the part of a
	// request that Select (ViewFor included) does not account for is
	// the binary's JSON front, middleware and net/http plus loopback.
	front := res.values["announce_p50_us"] - sel
	res.values["apptracker.front_us_p50"] = front
	res.values["trace.unattributed_us_p50"] = front
	if p50 := res.values["announce_p50_us"]; p50 > 0 {
		res.values["trace.unattributed_frac"] = front / p50
		_, tp50, _ := traced.quiet()
		res.values["trace.overhead_frac"] = tp50*1e3/p50 - 1
	}
	res.table = a.table("announce (bench.announce: traced requests; apptracker.*: in-process replay)")
	res.table = append(res.table, fmt.Sprintf("  %-30s %9s %12s %12.1f   (announce_p50_us - apptracker.select incl_p50)", "apptracker.front", "-", "-", front))
	return res, rc.write(o.out, o.workload)
}
