// Command p4pfed serves a P4P federation front end: a shard router
// that consumes N backend iTracker portals (one per provider / PID
// shard), composes their external views with the configured
// interdomain circuits, and serves the merged federation view through
// the same portal.Handler an iTracker uses — an appTracker cannot tell
// it from a single very wide iTracker.
//
// Example, two providers joined by one circuit:
//
//	p4pfed -listen :8090 \
//	    -shard east=http://east.example:8080 \
//	    -shard west=http://west.example:8080 \
//	    -circuit east:4,west:7,2.5
//
// then query it:
//
//	curl localhost:8090/p4p/v1/distances
//	curl "localhost:8090/p4p/v1/distances/batch?pairs=4-7"
//	curl localhost:8090/stats
//
// Observability matches the portal binary: GET /metrics serves the
// Prometheus exposition (per-shard refreshes/failures/stale serves,
// merge counters, encoded-response cache hits and encodes, per-route
// HTTP metrics, runtime health), GET
// /healthz and /readyz serve liveness and readiness (ready while at
// least one shard holds a view — degraded-but-serving is reported, not
// failed), GET /stats snapshots per-shard freshness and the published
// merge, and -traces enables request tracing on GET /debug/traces.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"p4p/internal/federation"
	"p4p/internal/portal"
	"p4p/internal/telemetry"
	"p4p/internal/trace"
)

// listFlag collects a repeatable string flag.
type listFlag []string

func (l *listFlag) String() string     { return strings.Join(*l, ",") }
func (l *listFlag) Set(s string) error { *l = append(*l, s); return nil }

func main() {
	var shardFlags, circuitFlags listFlag
	var (
		listen  = flag.String("listen", ":8090", "HTTP listen address")
		ttl     = flag.Duration("ttl", 30*time.Second, "merged-view TTL between shard revalidations")
		backoff = flag.Duration("failure-backoff", 5*time.Second, "serve last-known-good this long before retrying a failed shard")
		tokens  = flag.String("tokens", "", "comma-separated trusted appTracker tokens (empty = open)")
		token   = flag.String("shard-token", "", "trust token presented to every backend portal")
		pprofOn = flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")
		logJSON = flag.Bool("log-json", false, "emit JSON logs instead of text")

		tracesOn    = flag.Bool("traces", false, "enable request tracing and serve GET /debug/traces")
		traceSlow   = flag.Duration("trace-slow", 250*time.Millisecond, "tail sampling: always keep traces slower than this")
		traceSample = flag.Float64("trace-sample", 1, "head sampling rate for new traces in [0,1]")
		traceKeep   = flag.Float64("trace-keep", 0.1, "tail keep rate for fast clean traces in [0,1]")
		traceCap    = flag.Int("trace-cap", 256, "kept-trace ring capacity")
	)
	flag.Var(&shardFlags, "shard", "backend shard as name=url (repeatable, at least one)")
	flag.Var(&circuitFlags, "circuit", "interdomain circuit as shardA:pidA,shardB:pidB,cost (repeatable)")
	flag.Parse()

	logger := newLogger(*logJSON)

	cfg := federation.Config{
		TTL:            *ttl,
		FailureBackoff: *backoff,
	}
	if *tokens != "" {
		cfg.TrustedTokens = strings.Split(*tokens, ",")
	}
	for _, s := range shardFlags {
		name, url, ok := strings.Cut(s, "=")
		if !ok || name == "" || url == "" {
			fmt.Fprintf(os.Stderr, "bad -shard %q: want name=url\n", s)
			os.Exit(2)
		}
		cfg.Shards = append(cfg.Shards, federation.ShardConfig{Name: name, BaseURL: url, Token: *token})
	}
	for _, s := range circuitFlags {
		c, err := federation.ParseCircuit(s)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		cfg.Circuits = append(cfg.Circuits, c)
	}
	rt, err := federation.NewRouter(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	reg := telemetry.NewRegistry()
	rt.Metrics = federation.NewRouterMetrics(reg)
	rt.CacheMetrics = portal.NewCacheMetrics(reg)
	rt.Telemetry.Metrics = telemetry.NewHTTPMetrics(reg, "p4p_http")
	rt.Telemetry.Logger = logger
	rt.Telemetry.Preregister()

	var collector *trace.Collector
	if *tracesOn {
		collector = trace.NewCollector(*traceCap, *traceSlow, *traceKeep)
		rt.Telemetry.Tracer = &trace.Tracer{Collector: collector, SampleRate: *traceSample}
	}

	rm := telemetry.NewRuntimeMetrics(reg)
	mux := http.NewServeMux()
	mux.Handle("/", rt) // /p4p/v1/*, /stats, /healthz, /readyz
	mux.Handle("GET /metrics", rm.Handler(reg.Handler()))
	if collector != nil {
		mux.Handle("GET /debug/traces", collector.Handler())
	}
	if *pprofOn {
		telemetry.RegisterPprof(mux)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv := &http.Server{
		Addr:              *listen,
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	logger.Info("federation router listening",
		slog.String("addr", *listen),
		slog.Int("shards", len(cfg.Shards)),
		slog.Int("circuits", len(cfg.Circuits)),
		slog.Bool("pprof", *pprofOn),
		slog.Bool("traces", *tracesOn))

	select {
	case err := <-errCh:
		logger.Error("serve failed", slog.String("error", err.Error()))
		os.Exit(1)
	case <-ctx.Done():
		logger.Info("shutting down")
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			logger.Error("shutdown", slog.String("error", err.Error()))
		}
	}
}

// newLogger builds the process logger: text for humans, JSON for log
// pipelines.
func newLogger(jsonOut bool) *slog.Logger {
	if jsonOut {
		return slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	return slog.New(slog.NewTextHandler(os.Stderr, nil))
}
