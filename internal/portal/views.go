package portal

import (
	"context"
	"log/slog"
	"sync"
	"time"

	"p4p/internal/core"
	"p4p/internal/trace"
)

// ViewFetcher fetches one distance view; *Client satisfies it, and
// fault-injection tests supply failing/slow/flaky implementations.
type ViewFetcher interface {
	DistancesContext(ctx context.Context) (*core.View, error)
}

// ViewStats counts how a ViewCache is behaving; consumers export it so
// operators can see when peers are being selected off a stale view
// (the paper's graceful-degradation mode).
type ViewStats struct {
	// Refreshes counts successful fetches (including cheap 304
	// revalidations inside the client).
	Refreshes int64 `json:"refreshes"`
	// Failures counts fetch attempts that produced no usable view.
	Failures int64 `json:"failures"`
	// StaleServes counts reads answered from the last-known-good view
	// after its TTL expired (portal slow or down).
	StaleServes int64 `json:"stale_serves"`
	// NilServes counts reads with no view at all (portal down and never
	// reached).
	NilServes int64 `json:"nil_serves"`
	// Coalesces counts reads answered from the previous view while
	// another caller's fetch was in flight (singleflight).
	Coalesces int64 `json:"coalesces"`
}

// Event reports what one ViewCache.Get did, so callers can mirror it
// into their own metrics. Several bits can be set at once (a failed
// fetch that falls back to the last-known-good view is
// EventFailure|EventStale).
type Event uint8

const (
	EventRefresh Event = 1 << iota
	EventFailure
	EventStale
	EventNil
	EventCoalesce
)

// RefreshPolicy parameterizes ViewCache.Get. Zero durations take the
// defaults.
type RefreshPolicy struct {
	// TTL is how long a fetched view is served without revalidation
	// (default 30s).
	TTL time.Duration
	// Timeout bounds one fetch, on top of the client's own retry policy
	// (default 10s).
	Timeout time.Duration
	// Backoff is how long a failed fetch serves the last-known-good view
	// before the source is tried again (default 5s); it stops a dead
	// portal from being hammered on every read.
	Backoff time.Duration
	// Now, when non-nil, replaces time.Now so tests can drive the TTL
	// and backoff windows with a fake clock instead of sleeping.
	Now func() time.Time
	// Tracer, when non-nil, records each fetch as a root span; otherwise
	// the fetch span is a child of the caller's span, if any.
	Tracer *trace.Tracer
	// Logger, when non-nil, receives one line per failed fetch.
	Logger *slog.Logger
	// Wait makes a caller that holds no view wait for an in-flight
	// fetch (bounded by its own context) instead of getting nil.
	Wait bool
}

func (p *RefreshPolicy) now() time.Time {
	if p.Now != nil {
		//p4pvet:ignore allochot injected clock call allocates nothing; nil in production, set by sleep-free fake-clock tests
		return p.Now()
	}
	return time.Now()
}

// Since reports how long ago t was on the policy's clock.
func (p *RefreshPolicy) Since(t time.Time) time.Duration {
	return p.now().Sub(t)
}

// Fresh reports whether a snapshot holds a view inside the TTL.
func (p *RefreshPolicy) Fresh(st CacheStatus) bool {
	return st.View != nil && p.Since(st.Fetched) < p.ttl()
}

func (p *RefreshPolicy) ttl() time.Duration {
	if p.TTL > 0 {
		return p.TTL
	}
	return 30 * time.Second
}

func (p *RefreshPolicy) timeout() time.Duration {
	if p.Timeout > 0 {
		return p.Timeout
	}
	return 10 * time.Second
}

func (p *RefreshPolicy) backoff() time.Duration {
	if p.Backoff > 0 {
		return p.Backoff
	}
	return 5 * time.Second
}

// ViewCache is the one view-fetch state machine every portal consumer
// shares: apptracker.PortalViews, each federation shard, and the
// federation's published merge. A fetched view serves for a TTL; the
// first reader past it fetches again while concurrent readers are
// answered from the held view (singleflight); a failed fetch keeps the
// last-known-good view and waits out a backoff before trying again —
// "applications can make default decisions without the iTracker". The
// zero value is ready to use.
type ViewCache struct {
	mu        sync.Mutex
	view      *core.View
	gen       int // bumped whenever a fetch replaces view with a different pointer
	fetched   time.Time
	nextRetry time.Time
	inflight  chan struct{} // non-nil while one fetch runs; closed when it lands
	lastErr   string
	stats     ViewStats
}

// Get returns the view to serve (nil when none was ever fetched) and
// its generation, which changes exactly when the held view does.
//
// The fetch runs detached from ctx's cancellation: it serves every
// reader that coalesces onto it, so one abandoned request must not
// mark the source failed. ctx still bounds a Wait, and its values (the
// caller's trace span) carry over to the fetch.
func (c *ViewCache) Get(ctx context.Context, pol RefreshPolicy, f ViewFetcher) (*core.View, int, Event) {
	now := pol.now()
	c.mu.Lock()
	for {
		fresh := c.view != nil && now.Sub(c.fetched) < pol.ttl()
		if !fresh && c.inflight == nil && !now.Before(c.nextRetry) {
			break
		}
		if !fresh && c.inflight != nil && c.view == nil && pol.Wait {
			done := c.inflight
			c.mu.Unlock()
			select {
			case <-done:
				c.mu.Lock()
				continue
			case <-ctx.Done():
				c.mu.Lock()
			}
		}
		var ev Event
		if !fresh && c.inflight != nil {
			ev |= EventCoalesce
		}
		if c.view == nil {
			ev |= EventNil
		} else if !fresh {
			ev |= EventStale
		}
		c.count(ev)
		v, gen := c.view, c.gen
		c.mu.Unlock()
		return v, gen, ev
	}
	done := make(chan struct{})
	c.inflight = done
	c.mu.Unlock()
	return c.refresh(ctx, pol, f, done)
}

// refresh runs the one in-flight fetch and publishes its outcome.
//
//p4p:coldpath at most one fetch per TTL window; the network round-trip dominates
func (c *ViewCache) refresh(ctx context.Context, pol RefreshPolicy, f ViewFetcher, done chan struct{}) (*core.View, int, Event) {
	ctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), pol.timeout())
	defer cancel()
	var span *trace.Span
	if pol.Tracer != nil {
		ctx, span = pol.Tracer.StartRoot(ctx, "view_refresh")
	} else {
		ctx, span = trace.StartSpan(ctx, "view_refresh")
	}
	defer span.End()
	v, err := f.DistancesContext(ctx)

	now := pol.now()
	c.mu.Lock()
	c.inflight = nil
	ev := EventRefresh
	if err != nil {
		ev = EventFailure
		c.nextRetry = now.Add(pol.backoff())
		c.lastErr = err.Error()
		if v = c.view; v == nil {
			ev |= EventNil
		} else {
			ev |= EventStale
		}
	} else {
		if v != c.view {
			c.gen++
		}
		c.view, c.fetched, c.nextRetry, c.lastErr = v, now, time.Time{}, ""
	}
	c.count(ev)
	gen := c.gen
	c.mu.Unlock()
	close(done)

	switch {
	case err == nil:
		span.SetAttr("outcome", "refreshed")
		span.SetAttrInt("view_version", v.Version)
		return v, gen, ev
	case v == nil:
		span.SetAttr("outcome", "nil_fallback")
	default:
		span.SetAttr("outcome", "stale_fallback")
	}
	span.RecordError(err)
	if pol.Logger != nil {
		pol.Logger.Warn("view refresh failed, serving last-known-good", slog.String("error", err.Error()))
	}
	return v, gen, ev
}

// count folds one Get's events into the counters; c.mu is held.
func (c *ViewCache) count(ev Event) {
	if ev&EventRefresh != 0 {
		c.stats.Refreshes++
	}
	if ev&EventFailure != 0 {
		c.stats.Failures++
	}
	if ev&EventStale != 0 {
		c.stats.StaleServes++
	}
	if ev&EventNil != 0 {
		c.stats.NilServes++
	}
	if ev&EventCoalesce != 0 {
		c.stats.Coalesces++
	}
}

// CacheStatus is a snapshot of a ViewCache.
type CacheStatus struct {
	// View is the held view, possibly stale; nil before any successful
	// fetch.
	View *core.View
	// Gen is View's generation (see Get).
	Gen int
	// Fetched is when View was fetched.
	Fetched time.Time
	// LastErr is the last fetch error, "" once a fetch succeeds.
	LastErr string
	Stats   ViewStats
}

// Status snapshots the cache.
func (c *ViewCache) Status() CacheStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStatus{View: c.view, Gen: c.gen, Fetched: c.fetched, LastErr: c.lastErr, Stats: c.stats}
}

// Invalidate expires the held view and any failure backoff, so the
// next Get fetches synchronously. The last-known-good view is kept: if
// that fetch fails, degradation semantics are unchanged.
func (c *ViewCache) Invalidate() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.fetched = time.Time{}
	c.nextRetry = time.Time{}
}
