package federation

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net"
	"net/http"
	"sync"
	"time"

	"p4p/internal/core"
	"p4p/internal/health"
	"p4p/internal/itracker"
	"p4p/internal/portal"
	"p4p/internal/telemetry"
	"p4p/internal/topology"
	"p4p/internal/trace"
)

// ShardConfig names one backend portal and the PID shard it speaks for.
type ShardConfig struct {
	// Name is the shard's identity in circuits, stats, and metrics.
	Name string
	// BaseURL is the backend portal root.
	BaseURL string
	// Token, when non-empty, is presented to the backend (the router
	// holds the trust relationship with each provider).
	Token string
	// MinPID/MaxPID, when not both zero, declare the inclusive PID
	// range this shard may serve; a fetched view containing a PID
	// outside the range is rejected as misconfigured (or hostile) and
	// the last-known-good view kept instead. Merge additionally rejects
	// any PID served by two shards, so the range gate is defense ahead
	// of that collision, attributable to the offending backend.
	MinPID, MaxPID topology.PID
}

// Config parameterizes a Router.
type Config struct {
	// Shards lists the backend portals; at least one is required and
	// names must be unique.
	Shards []ShardConfig
	// Circuits joins the shards' PID spaces (see Circuit). Each circuit
	// must reference configured shard names.
	Circuits []Circuit
	// TrustedTokens, when non-empty, restricts the distance interfaces
	// to callers presenting one of these tokens, mirroring the backend
	// portals' own access model.
	TrustedTokens []string
	// TTL is how long a merged view serves before shard revalidation
	// (default 30s). Revalidation is cheap when nothing changed: each
	// backend answers 304 off the client's per-URL ETag cache and the
	// previous merged encoding is republished untouched.
	TTL time.Duration
	// RefreshTimeout bounds one shard fetch on top of the client's
	// retry policy (default 10s).
	RefreshTimeout time.Duration
	// FailureBackoff is how long a failed shard serves last-known-good
	// before being retried (default 5s).
	FailureBackoff time.Duration
	// Client, when non-nil, is the template the per-shard clients are
	// derived from via WithBase (sharing its HTTP transport, retry
	// policy, metrics, and URL-keyed ETag cache); tests inject short
	// retries and fake transports here.
	Client *portal.Client
}

// shard is one backend portal: its client and its view state machine.
type shard struct {
	cfg    ShardConfig
	client *portal.Client
	cache  portal.ViewCache
}

// DistancesContext fetches the shard's view through the PID-range gate:
// a view with a PID outside the declared range is a failed fetch, so
// the shard keeps serving its last-known-good view.
func (s *shard) DistancesContext(ctx context.Context) (*core.View, error) {
	v, err := s.client.DistancesContext(ctx)
	if err != nil {
		return nil, err
	}
	if s.cfg.MinPID == 0 && s.cfg.MaxPID == 0 {
		return v, nil
	}
	for _, pid := range v.PIDs {
		if pid < s.cfg.MinPID || pid > s.cfg.MaxPID {
			return nil, fmt.Errorf("federation: shard %q served PID %d outside its declared range [%d,%d]",
				s.cfg.Name, pid, s.cfg.MinPID, s.cfg.MaxPID)
		}
	}
	return v, nil
}

// RouterMetrics instruments the federation router. Per-shard families
// carry a "shard" label. All recording methods are nil-safe.
type RouterMetrics struct {
	// ShardRefreshes counts successful per-shard view fetches.
	ShardRefreshes *telemetry.CounterVec
	// ShardFailures counts per-shard fetches that exhausted retries or
	// returned an invalid view.
	ShardFailures *telemetry.CounterVec
	// ShardStaleServes counts merge passes serving a shard's
	// last-known-good view past its TTL.
	ShardStaleServes *telemetry.CounterVec
	// Merges counts merged-view rebuilds (input fingerprint changed).
	Merges *telemetry.Counter
	// MergedPIDs is the PID count of the current merged view.
	MergedPIDs *telemetry.Gauge
	// ShardsServing is how many shards contributed a view to the
	// current merge (fresh or stale).
	ShardsServing *telemetry.Gauge
}

// NewRouterMetrics registers the federation router metric families.
func NewRouterMetrics(r *telemetry.Registry) *RouterMetrics {
	return &RouterMetrics{
		ShardRefreshes: r.CounterVec("p4p_federation_shard_refreshes_total",
			"Successful backend view fetches (including 304 revalidations).", "shard"),
		ShardFailures: r.CounterVec("p4p_federation_shard_failures_total",
			"Backend fetches that exhausted retries or returned an invalid view.", "shard"),
		ShardStaleServes: r.CounterVec("p4p_federation_shard_stale_serves_total",
			"Merge passes serving a shard's last-known-good view past its TTL.", "shard"),
		Merges: r.Counter("p4p_federation_merges_total",
			"Merged-view rebuilds (per-shard input fingerprint changed)."),
		MergedPIDs: r.Gauge("p4p_federation_merged_pids",
			"PID count of the current merged view."),
		ShardsServing: r.Gauge("p4p_federation_shards_serving",
			"Shards contributing a view (fresh or stale) to the current merge."),
	}
}

// shard mirrors one shard's ViewCache events.
func (m *RouterMetrics) shard(name string, ev portal.Event) {
	if m == nil {
		return
	}
	if ev&portal.EventRefresh != 0 {
		m.ShardRefreshes.With(name).Inc()
	}
	if ev&portal.EventFailure != 0 {
		m.ShardFailures.With(name).Inc()
	}
	if ev&portal.EventStale != 0 {
		m.ShardStaleServes.With(name).Inc()
	}
}

func (m *RouterMetrics) merge(pids, serving int) {
	if m != nil {
		m.Merges.Inc()
		m.MergedPIDs.Set(float64(pids))
		m.ShardsServing.Set(float64(serving))
	}
}

// errNoShards is the federated source's answer before any shard has
// produced a view; the portal handler turns it into a 503.
var errNoShards = fmt.Errorf("federation: no shard views available: %w", portal.ErrUnavailable)

// Router is the federation front end: a portal.Handler whose source is
// the federation itself, so an appTracker cannot tell it from a single
// very wide iTracker —
//
//	GET  /p4p/v1/distances[?form=ranks]
//	GET  /p4p/v1/distances/batch?pairs=src-dst,...
//	POST /p4p/v1/distances/batch
//	GET  /p4p/v1/pid?ip=a.b.c.d   (proxied shard by shard)
//	GET  /healthz, /readyz, /stats
//
// Each shard's view lives in its own portal.ViewCache (TTL, failure
// backoff, last-known-good), fetched through the PID-range gate. The
// merge of those views goes through a MergeCache and is itself held in
// a ViewCache, whose generation — bumped only when the published merge
// changes — is the version behind the federation ETag: a revalidation
// pass where every backend answers 304 republishes the previous
// encoding byte-for-byte, while a shard version bump or a backend
// restart (new backend ETag, new view) mints a new one. Shards degrade
// independently: a dead backend keeps serving its last-known-good view,
// and /readyz fails only when no shard has ever produced one. Policy
// and capability interfaces stay per-provider and are deliberately not
// served (404) — they are meaningless merged.
type Router struct {
	*portal.Handler
	// Metrics, when non-nil, instruments shard refreshes and merges
	// (see NewRouterMetrics).
	Metrics *RouterMetrics

	cfg    Config
	tokens itracker.Tokens
	shards []*shard
	merges *MergeCache
	view   portal.ViewCache // the published merge

	// nowFn, when non-nil, replaces time.Now so tests drive TTL and
	// backoff windows with a fake clock instead of sleeping.
	nowFn func() time.Time
}

// NewRouter builds the federation front end. Configuration errors —
// no shards, duplicate names, circuits referencing unknown shards —
// fail here, loudly, not at serve time.
func NewRouter(cfg Config) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("federation: no shards configured")
	}
	names := make(map[string]bool, len(cfg.Shards))
	for _, s := range cfg.Shards {
		if s.Name == "" || s.BaseURL == "" {
			return nil, fmt.Errorf("federation: shard needs both a name and a base URL (got name=%q url=%q)", s.Name, s.BaseURL)
		}
		if names[s.Name] {
			return nil, fmt.Errorf("federation: duplicate shard name %q", s.Name)
		}
		if s.MaxPID < s.MinPID {
			return nil, fmt.Errorf("federation: shard %q: MaxPID %d < MinPID %d", s.Name, s.MaxPID, s.MinPID)
		}
		names[s.Name] = true
	}
	for _, c := range cfg.Circuits {
		if !names[c.A] || !names[c.B] {
			return nil, fmt.Errorf("federation: circuit %s:%d-%s:%d references an unknown shard", c.A, c.APID, c.B, c.BPID)
		}
		if c.Cost < 0 || math.IsNaN(c.Cost) {
			return nil, fmt.Errorf("federation: circuit %s:%d-%s:%d has invalid cost %v", c.A, c.APID, c.B, c.BPID, c.Cost)
		}
	}
	base := cfg.Client
	if base == nil {
		base = portal.NewClient("", "")
	}
	rt := &Router{cfg: cfg, tokens: itracker.NewTokens(cfg.TrustedTokens)}
	order := make([]string, 0, len(cfg.Shards))
	for _, sc := range cfg.Shards {
		c := base.WithBase(sc.BaseURL)
		if sc.Token != "" {
			c.Token = sc.Token
		}
		rt.shards = append(rt.shards, &shard{cfg: sc, client: c})
		order = append(order, sc.Name)
	}
	rt.merges = NewMergeCache(order, cfg.Circuits)
	rt.Handler = portal.NewHandler(rt)
	rt.Handle("GET /stats", rt.Telemetry.RouteFunc("stats", func(w http.ResponseWriter, r *http.Request) {
		rt.WriteJSON(w, r, http.StatusOK, rt.Stats())
	}))
	rt.Handle("GET /healthz", health.Handler())
	rt.Handle("GET /readyz", health.ReadyHandler(health.Check{Name: "federation_view", Probe: rt.Ready}))
	return rt, nil
}

func (rt *Router) policy() portal.RefreshPolicy {
	return portal.RefreshPolicy{
		TTL: rt.cfg.TTL, Timeout: rt.cfg.RefreshTimeout, Backoff: rt.cfg.FailureBackoff,
		Now: rt.nowFn, Wait: true,
	}
}

// ViewCtx implements portal.Source: the published merge and its
// generation, running a refresh pass when the merge is past its TTL.
//
//p4p:hotpath inside the TTL this is a token check, a mutex, and a clock read
func (rt *Router) ViewCtx(ctx context.Context, token string) (*core.View, int, error) {
	if !rt.tokens.Allows(token) {
		return nil, 0, itracker.ErrAccessDenied
	}
	v, gen, _ := rt.view.Get(ctx, rt.policy(), (*refreshPass)(rt))
	if v == nil {
		return nil, 0, errNoShards
	}
	return v, gen, nil
}

// LookupPIDCtx implements portal.Source by asking each backend in
// configuration order: PID assignment is per-provider state the router
// does not replicate.
func (rt *Router) LookupPIDCtx(ctx context.Context, token string, ip net.IP) (topology.PID, int, error) {
	if !rt.tokens.Allows(token) {
		return 0, 0, itracker.ErrAccessDenied
	}
	for _, s := range rt.shards {
		if out, err := s.client.LookupPIDContext(ctx, ip); err == nil {
			return out.PID, out.ASN, nil
		}
	}
	return 0, 0, errors.New("no shard maps this IP")
}

// refreshPass is the Router seen as the fetcher of its published
// merge: one pass refreshes every shard concurrently, each through its
// own ViewCache, and merges whatever views exist.
type refreshPass Router

// DistancesContext runs one pass. It fails only when no shard has a
// view or the views do not compose (two shards serving one PID: a
// deployment error, not a transient); the router then keeps serving
// the previous merge rather than a view known to be wrong.
//
//p4p:coldpath runs at most once per TTL window
func (p *refreshPass) DistancesContext(ctx context.Context) (*core.View, error) {
	rt := (*Router)(p)
	ctx, span := trace.StartSpan(ctx, "federation_refresh")
	defer span.End()
	views := make([]*core.View, len(rt.shards))
	var wg sync.WaitGroup
	for i, s := range rt.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pol := rt.policy()
			if l := rt.Telemetry.Logger; l != nil {
				pol.Logger = l.With(slog.String("shard", s.cfg.Name))
			}
			var ev portal.Event
			views[i], _, ev = s.cache.Get(ctx, pol, s)
			rt.Metrics.shard(s.cfg.Name, ev)
		}()
	}
	wg.Wait()
	serving := 0
	for _, v := range views {
		if v != nil {
			serving++
		}
	}
	span.SetAttrInt("shards_serving", serving)
	merged, fresh, err := rt.merges.Merge(views)
	switch {
	case err != nil:
		span.RecordError(err)
		if l := rt.Telemetry.Logger; l != nil && fresh {
			l.Error("federation merge failed, keeping previous view", slog.String("error", err.Error()))
		}
		return nil, err
	case merged == nil:
		return nil, errNoShards
	case fresh:
		rt.Metrics.merge(len(merged.PIDs), serving)
		span.SetAttrInt("merged_pids", len(merged.PIDs))
	}
	return merged, nil
}

// ShardStatus is one shard's row in the /stats body.
type ShardStatus struct {
	Name    string `json:"name"`
	URL     string `json:"url"`
	HasView bool   `json:"has_view"`
	// Fresh is true when the view was fetched within the TTL.
	Fresh     bool   `json:"fresh"`
	Version   int    `json:"version,omitempty"`
	PIDs      int    `json:"pids,omitempty"`
	ETag      string `json:"etag,omitempty"`
	LastError string `json:"last_error,omitempty"`
	portal.ViewStats
}

// MergedStatus describes the published merge in the /stats body.
type MergedStatus struct {
	Version       int    `json:"version"`
	PIDs          int    `json:"pids"`
	ShardsServing int    `json:"shards_serving"`
	ShardsFresh   int    `json:"shards_fresh"`
	ETag          string `json:"etag"`
}

// RouterStats is the /stats body.
type RouterStats struct {
	Shards []ShardStatus `json:"shards"`
	Merged *MergedStatus `json:"merged,omitempty"`
}

// Stats snapshots per-shard and merged state for /stats.
func (rt *Router) Stats() RouterStats {
	pol := rt.policy()
	out := RouterStats{Shards: make([]ShardStatus, 0, len(rt.shards))}
	serving, fresh := 0, 0
	for _, s := range rt.shards {
		cs := s.cache.Status()
		st := ShardStatus{
			Name:      s.cfg.Name,
			URL:       s.cfg.BaseURL,
			HasView:   cs.View != nil,
			Fresh:     pol.Fresh(cs),
			ETag:      s.client.ViewETag("raw"),
			LastError: cs.LastErr,
			ViewStats: cs.Stats,
		}
		if cs.View != nil {
			st.Version = cs.View.Version
			st.PIDs = len(cs.View.PIDs)
			serving++
		}
		if st.Fresh {
			fresh++
		}
		out.Shards = append(out.Shards, st)
	}
	if ms := rt.view.Status(); ms.View != nil {
		out.Merged = &MergedStatus{
			Version:       ms.View.Version,
			PIDs:          len(ms.View.PIDs),
			ShardsServing: serving,
			ShardsFresh:   fresh,
			ETag:          rt.ETag(ms.Gen, "raw"),
		}
	}
	return out
}

// Ready reports whether the router can serve: at least one shard holds
// a view (fresh or last-known-good). The detail string distinguishes a
// full federation from a degraded one for /readyz readers.
func (rt *Router) Ready() (bool, string) {
	st := rt.Stats()
	serving, fresh := 0, 0
	for _, s := range st.Shards {
		if s.HasView {
			serving++
		}
		if s.Fresh {
			fresh++
		}
	}
	return serving > 0, fmt.Sprintf("%d/%d shards serving (%d fresh)", serving, len(rt.shards), fresh)
}
