// Command perfbench is the repository's benchmark. It runs one of four
// seeded workloads against the P4P serving stack or the swarm
// simulator, checks every output, and prints the workload's metrics by
// name with their units:
//
//	perfbench -workload announce -seed 1 -seconds 15 -trace 0 \
//	    -apptracker ./apptracker -out ./spans
//
// With -trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics; with -trace 1 it carries the per-layer
// metrics of a traced run, and the lines above it hold the per-layer
// table. run.sh builds the binaries and passes the flags; README.md
// explains each workload and metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"sync"
	"syscall"
	"time"
)

// warmup is the closed-loop load run and discarded before the serving
// workloads measure, so connections and caches are established.
const warmup = 500 * time.Millisecond

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees, reported by the
// untraced run of every workload. Each workload defines its operation:
// a selection request (announce), a fleet fetch of the merged view
// (churn), or one whole simulation (swarm, flash-crowd).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"alloc_kb_per_op", "KB"},
}

// perLayer are the metrics of the traced run. A layer a workload does
// not exercise reads 0 there.
var perLayer = []metricDef{
	{"apptracker.select_us_p50", "us"},
	{"apptracker.select_calls", "count"},
	{"apptracker.select_busy_s", "s"},
	{"apptracker.viewfor_us_p50", "us"},
	{"apptracker.front_us_p50", "us"},
	{"apptracker.refreshes", "count"},
	{"apptracker.stale_serves", "count"},
	{"apptracker.coalesces", "count"},
	{"itracker.update_us_p50", "us"},
	{"itracker.update_calls", "count"},
	{"itracker.view_busy_s", "s"},
	{"portal.serve_full_us_p50", "us"},
	{"portal.serve_full_count", "count"},
	{"portal.serve_304_us_p50", "us"},
	{"portal.serve_304_count", "count"},
	{"portal.client_self_us_p50", "us"},
	{"portal.client_full_frac", "fraction"},
	{"federation.serve_us_p50", "us"},
	{"federation.shard_fetch_us_p50", "us"},
	{"federation.shard_fetches", "count"},
	{"federation.merge_us_p50", "us"},
	{"federation.refreshes", "count"},
	{"federation.failures", "count"},
	{"p2psim.core_busy_s", "s"},
	{"p2psim.completed", "count"},
	{"p2psim.bytes_mb", "MB"},
	{"runtime.gc_cpu_s", "s"},
	{"host.cpu_busy_frac", "fraction"},
	{"e2e.op_p99_ms", "ms"},
	{"e2e.failed_frac", "fraction"},
	{"e2e.propagation_p50_ms", "ms"},
	{"e2e.propagation_p90_ms", "ms"},
	{"trace.unattributed_us_p50", "us"},
	{"trace.unattributed_frac", "fraction"},
	{"trace.overhead_frac", "fraction"},
}

// options is one run's configuration, taken from the flags.
type options struct {
	seed       int64
	seconds    time.Duration
	trace      bool
	apptracker string // path of the cmd/apptracker binary
	out        string // directory the span file is written to
	workload   string
}

// result is what one workload run measured.
type result struct {
	attempted, failed int64
	// values holds every metric the run measured, end-to-end, per-layer
	// and workload-named alike, keyed by name.
	values map[string]float64
	// named lists the workload's own names for its end-to-end numbers
	// (announce_qps, fetch_p50_us, sim_wall_s, ...), printed for readers.
	named []metricDef
	// table is the traced run's per-layer table, one line per row.
	table []string
}

func newResult() *result { return &result{values: map[string]float64{}} }

// fail counts n failed operations and says why.
func (r *result) fail(n int64, format string, args ...interface{}) {
	r.failed += n
	logCheck(format, args...)
}

// logCheck reports a failed output check on standard error.
func logCheck(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
}

type workloadFunc func(ctx context.Context, o options) (*result, error)

var workloads = map[string]workloadFunc{
	"announce":    runAnnounce,
	"churn":       runChurn,
	"swarm":       runSwarm,
	"flash-crowd": runFlashCrowd,
}

func main() {
	var o options
	var seconds, traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: announce, churn, swarm or flash-crowd")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.IntVar(&seconds, "seconds", 15, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.StringVar(&o.apptracker, "apptracker", "", "path of the cmd/apptracker binary (announce)")
	flag.StringVar(&o.out, "out", ".", "directory for the traced run's span file")
	flag.Parse()

	run, ok := workloads[o.workload]
	if !ok || seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (announce, churn, swarm, flash-crowd), -seconds >= 1, -trace 0|1\n")
		os.Exit(2)
	}
	o.seconds = time.Duration(seconds) * time.Second
	o.trace = traceFlag == 1

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := run(ctx, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	if err := report(os.Stdout, o, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// report prints the human-readable lines and, last, the JSON summary.
func report(w io.Writer, o options, res *result) error {
	if res.attempted > 0 {
		res.values["e2e.failed_frac"] = float64(res.failed) / float64(res.attempted)
	}
	fmt.Fprintf(w, "workload %s seed %d seconds %.0f trace %v\n", o.workload, o.seed, o.seconds.Seconds(), o.trace)
	fmt.Fprintf(w, "%-32s %16.6g %s\n", "failed_frac", res.values["e2e.failed_frac"], "fraction")
	for _, m := range res.named {
		fmt.Fprintf(w, "%-32s %16.6g %s\n", m.name, res.values[m.name], m.unit)
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
		for _, line := range res.table {
			fmt.Fprintln(w, line)
		}
	}
	s := summary{
		Correct:   res.failed == 0 && res.attempted > 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]metricOut{},
	}
	for _, m := range defs {
		v := res.values[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", m.name, v)
		}
		fmt.Fprintf(w, "%-32s %16.6g %s\n", m.name, v, m.unit)
		s.Metrics[m.name] = metricOut{Value: v, Unit: m.unit}
	}
	line, err := json.Marshal(s)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks, or 0 for no samples. It sorts xs in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// setOpLatency fills the end-to-end operation metrics from per-operation
// latencies in microseconds and the ops-per-second they were served at.
func (r *result) setOpLatency(latUS []float64, opsPerSec float64) {
	r.values["ops_per_s"] = opsPerSec
	r.values["op_p50_ms"] = quantile(latUS, 0.50) / 1e3
	r.values["op_p90_ms"] = quantile(latUS, 0.90) / 1e3
	r.values["e2e.op_p99_ms"] = quantile(latUS, 0.99) / 1e3
}

// loadWindow is the length of the windows a closed-loop phase is cut
// into by completion time.
const loadWindow = 500 * time.Millisecond

// quietQ picks the quiet windows: ops_per_s is the quietQ-from-the-top
// quantile of the window rates, and the gated latencies are the
// quietQ quantile of the windows' latency quantiles.
const quietQ = 0.1

// opSample is one successful closed-loop operation: when it completed,
// as an offset from the start of its phase, and its latency in µs.
type opSample struct {
	done  time.Duration
	latUS float64
}

// loadStats is what a closed-loop phase measured.
type loadStats struct {
	ops               []opSample
	attempted, failed int64
	elapsed           time.Duration
}

func (s loadStats) latUS() []float64 {
	out := make([]float64, len(s.ops))
	for i, op := range s.ops {
		out[i] = op.latUS
	}
	return out
}

// setWindowed fills the end-to-end operation metrics of a closed-loop
// phase. The phase is cut into loadWindow windows by completion time.
// ops_per_s, op_p50_ms and op_p90_ms are read off the quietest tenth of
// the windows: the 90th percentile of the window rates and the 10th
// percentile of the windows' p50 and p90 latencies. Other tenants of a
// shared host slow some windows of every run, and by different amounts
// in different runs; the quiet windows repeat. e2e.op_p99_ms is taken
// over the whole phase.
func (r *result) setWindowed(s loadStats) {
	r.values["ops_per_s"], r.values["op_p50_ms"], r.values["op_p90_ms"] = s.quiet()
	r.values["e2e.op_p99_ms"] = quantile(s.latUS(), 0.99) / 1e3
}

// quiet returns the phase's rate, p50 and p90 latency in ms, read off
// its quietest tenth of windows as setWindowed describes.
func (s loadStats) quiet() (opsPerSec, p50ms, p90ms float64) {
	n := int(s.elapsed / loadWindow)
	if n < 1 {
		n = 1
	}
	width := s.elapsed / time.Duration(n)
	wins := make([][]float64, n)
	for _, op := range s.ops {
		w := int(op.done / width)
		if w >= n {
			w = n - 1
		}
		wins[w] = append(wins[w], op.latUS)
	}
	var rate, p50, p90 []float64
	for _, lat := range wins {
		rate = append(rate, float64(len(lat))/width.Seconds())
		if len(lat) > 0 {
			p50 = append(p50, quantile(lat, 0.50))
			p90 = append(p90, quantile(lat, 0.90))
		}
	}
	return quantile(rate, 1-quietQ), quantile(p50, quietQ) / 1e3, quantile(p90, quietQ) / 1e3
}

// server is one loopback HTTP server the benchmark owns.
type server struct {
	srv  *http.Server
	url  string
	done sync.WaitGroup
}

// serve starts h on a fresh loopback port.
func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{
		srv: &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second},
		url: "http://" + ln.Addr().String(),
	}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		// Serve always returns ErrServerClosed once close runs.
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}

// close stops the server and waits for its serve goroutine.
func (s *server) close() {
	s.srv.Close()
	s.done.Wait()
}

// newHTTPClient returns a client with its own single-connection pool, so
// each closed-loop worker holds one keep-alive connection.
func newHTTPClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
		Timeout:   30 * time.Second,
	}
}

// sleepCtx waits d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
