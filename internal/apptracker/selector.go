// Package apptracker implements the application-side peer selection of
// the paper's Section 6.2: the native (random) policy of stock
// BitTorrent trackers, the delay-localized policy used as the locality
// baseline, the three-stage P4P policy driven by p-distance weights, and
// the Pando-style upload/download bandwidth-matching policy built on the
// optimization of Section 4.
//
// Policies are expressed over abstract Nodes so they can serve both the
// discrete-event simulator and the HTTP appTracker binary.
package apptracker

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync/atomic"

	"p4p/internal/core"
	"p4p/internal/topology"
)

// Node is the selector's view of one client.
type Node struct {
	ID  int // opaque, unique within a swarm
	PID topology.PID
	ASN int
}

// Selector chooses up to m peers for a client from a candidate set.
// Implementations must not return self or duplicates, must be
// deterministic given the rng, and must return candidate indices.
type Selector interface {
	// Select returns indices into candidates. Fewer than m may be
	// returned when candidates run out.
	Select(self Node, candidates []Node, m int, rng *rand.Rand) []int
	// Name identifies the policy in experiment output.
	Name() string
}

// Random is the native BitTorrent appTracker: uniform random peers.
type Random struct{}

// Name implements Selector.
func (Random) Name() string { return "native" }

// Select implements Selector. It draws distinct candidates with Floyd's
// sampling algorithm — O(m) work and memory regardless of the candidate
// count, where the previous full-permutation draw was O(n) per call and
// dominated join handling in large-swarm simulations.
//
// The simulator call sites pre-exclude self from candidates, so the
// m-round draw below is plain Floyd there. Self can still appear at the
// HTTP appTracker and example call sites; node IDs are unique, so it is
// drawn at most once, and the slot it consumed is refilled with one
// uniform draw over the untouched indices. Drawing m+1 distinct uniform
// elements and discarding self leaves a uniform m-subset of the
// remaining n-1 candidates, so no index is over- or under-sampled
// either way.
func (Random) Select(self Node, candidates []Node, m int, rng *rand.Rand) []int {
	n := len(candidates)
	if m > n {
		m = n
	}
	if m <= 0 {
		return nil
	}
	chosen := make(map[int]struct{}, m+1)
	out := make([]int, 0, m)
	selfDrawn := false
	for j := n - m; j < n; j++ {
		t := rng.Intn(j + 1)
		if _, dup := chosen[t]; dup {
			t = j
		}
		chosen[t] = struct{}{}
		if candidates[t].ID == self.ID {
			selfDrawn = true
			continue
		}
		out = append(out, t)
	}
	if !selfDrawn || m == n {
		// m == n with self drawn: every candidate is already in the
		// draw, so the documented fewer-than-m case applies.
		return out
	}
	// Refill the slot self consumed: one uniform draw over the n-m
	// untouched indices. Rejection sampling needs n/(n-m) expected
	// attempts; the linear-scan fallback keeps the loop bounded even if
	// the rng is pathologically unlucky (at most ~(m/n)^64 probability,
	// and exact whenever a single free index remains).
	for attempts := 0; attempts < 64; attempts++ {
		t := rng.Intn(n)
		if _, dup := chosen[t]; !dup {
			return append(out, t)
		}
	}
	start := rng.Intn(n)
	for k := 0; k < n; k++ {
		t := (start + k) % n
		if _, dup := chosen[t]; !dup {
			return append(out, t)
		}
	}
	return out
}

// Localized is delay-localized BitTorrent: it ranks candidates by
// round-trip delay and picks the closest. Delay is supplied by the
// caller (the simulator derives it from propagation distances; a real
// deployment would ping).
type Localized struct {
	// Delay returns an RTT estimate between two nodes; lower is closer.
	Delay func(a, b Node) float64
}

// Name implements Selector.
func (*Localized) Name() string { return "localized" }

// Select implements Selector.
func (l *Localized) Select(self Node, candidates []Node, m int, rng *rand.Rand) []int {
	type cand struct {
		idx int
		d   float64
	}
	var cands []cand
	for i, c := range candidates {
		if c.ID == self.ID {
			continue
		}
		cands = append(cands, cand{i, l.Delay(self, c)})
	}
	sort.SliceStable(cands, func(a, b int) bool {
		if cands[a].d != cands[b].d {
			return cands[a].d < cands[b].d
		}
		return candidates[cands[a].idx].ID < candidates[cands[b].idx].ID
	})
	if len(cands) > m {
		cands = cands[:m]
	}
	out := make([]int, len(cands))
	for i, c := range cands {
		out[i] = c.idx
	}
	return out
}

// ViewProvider hands a selector the current p-distance external view for
// one AS. Implementations typically query an iTracker (or its portal
// client) and cache by engine version.
type ViewProvider interface {
	// ViewFor returns the distance view from the perspective of the
	// given AS, or nil if no iTracker covers it.
	ViewFor(asn int) DistanceView
}

// DistanceView is the view a ViewProvider hands out. It is the
// concrete *core.View, not an interface: P4P indexes the view's PID
// list and reads its matrix rows directly, and a nil view is plainly
// nil (no typed-nil interface to guard against).
type DistanceView = *core.View

// P4PConfig tunes the three-stage P4P selection. Zero values take the
// paper's defaults.
type P4PConfig struct {
	// UpperBoundIntraPID caps the fraction of peers chosen at the
	// client's own PID (default 0.70).
	UpperBoundIntraPID float64
	// UpperBoundInterPID caps the cumulative fraction chosen inside the
	// client's AS, including the intra-PID stage (default 0.80); it must
	// exceed UpperBoundIntraPID to be meaningful.
	UpperBoundInterPID float64
	// Gamma is the concave transform exponent applied to the inter-PID
	// weights for robustness (default 0.5; 1 disables).
	Gamma float64
}

func (c P4PConfig) withDefaults() P4PConfig {
	if c.UpperBoundIntraPID == 0 {
		c.UpperBoundIntraPID = 0.70
	}
	if c.UpperBoundInterPID == 0 {
		c.UpperBoundInterPID = 0.80
	}
	if c.Gamma == 0 {
		c.Gamma = 0.5
	}
	if c.UpperBoundInterPID < c.UpperBoundIntraPID {
		panic(fmt.Sprintf("apptracker: UpperBoundInterPID %v < UpperBoundIntraPID %v", c.UpperBoundInterPID, c.UpperBoundIntraPID))
	}
	return c
}

// P4P is the paper's three-stage staged peer selection (Section 6.2):
//
//  1. intra-PID: up to UpperBoundIntraPID*m peers at the client's PID;
//  2. inter-PID: up to UpperBoundInterPID*m peers (cumulative) inside
//     the client's AS, sampled with probability proportional to the
//     p-distance weights w_ij = 1/p_ij (concavified);
//  3. inter-AS: the remainder from other ASes, with per-AS quota
//     inversely proportional to the p-distance from the client's PID to
//     that AS, using the client's own AS's view ("the appTracker uses
//     the p-distances from AS-n's view").
type P4P struct {
	Views  ViewProvider
	Config P4PConfig

	// index caches the position lookup and weight rows of the last
	// view selected over; see indexFor.
	index atomic.Pointer[viewIndex]
}

// Name implements Selector.
func (*P4P) Name() string { return "p4p" }

// Select implements Selector.
//
// Selection works over view positions rather than PID-keyed maps: the
// P4P caches an index per view (viewIndex) and each call takes its
// working memory from a pool (selectScratch). Selections and RNG
// consumption match the map-based reference in selector_ref_test.go
// exactly: buckets keep candidate order and are visited in ascending
// PID order, and every weight and sum is the same float added in the
// same order.
//
// A candidate whose PID is not in the view is treated as unreachable:
// +Inf distance and the 1e-9 weight floor. A federated view that lost
// a shard legitimately lacks that shard's PIDs. If self's PID is not
// in the view there are no distances from self at all, so selection
// falls back to Random, as it does without a view.
func (p *P4P) Select(self Node, candidates []Node, m int, rng *rand.Rand) []int {
	cfg := p.Config.withDefaults()
	view := p.Views.ViewFor(self.ASN)
	if view == nil {
		// No iTracker covers this AS: applications make default
		// decisions (the paper's robustness answer) — fall back to
		// random selection.
		return Random{}.Select(self, candidates, m, rng)
	}
	ix := p.indexFor(view, cfg.Gamma)
	selfPos, ok := ix.position(self.PID)
	if !ok {
		return Random{}.Select(self, candidates, m, rng)
	}
	s := scratchPool.Get().(*selectScratch)
	defer scratchPool.Put(s)
	s.locate(ix, self, candidates)
	selfRow := view.D[selfPos]

	var out []int
	if c := min(m, len(candidates)); c > 0 {
		out = make([]int, 0, c)
	}
	take := func(i int) {
		s.taken[i] = true
		out = append(out, i)
	}

	// Stage 1: intra-PID. The pool keeps candidate order for the
	// backfill, so the shuffle runs on a copy.
	intraCap := int(cfg.UpperBoundIntraPID * float64(m))
	s.tmp = append(s.tmp[:0], s.samePID...)
	shuffle(rng, s.tmp)
	for _, i := range s.tmp {
		if len(out) >= intraCap {
			break
		}
		take(i)
	}

	// Stage 2: inter-PID within the AS, weighted sampling by PID. The
	// cumulative in-AS bound adapts to relative distances, per Section
	// 6.2: the default is an upper bound, raised toward 1 when external
	// ASes are far more expensive than in-AS peers (and conversely the
	// default applies when interdomain distances are comparable).
	interFrac := cfg.UpperBoundInterPID
	if adj := s.interASAdjustment(selfRow); adj > 0 {
		interFrac += (1 - cfg.UpperBoundInterPID) * adj
	}
	interCap := int(interFrac * float64(m))
	weights := ix.weightRow(selfPos)
	s.flat = s.countingSort(s.flat, s.otherPID, s.key, s.keys)
	buckets := s.bucketize(s.buckets[:0], 0, len(s.otherPID), weights)
	for _, b := range buckets {
		shuffle(rng, s.flat[b.start:b.start+b.n])
	}
	for len(out) < interCap {
		b := sampleBucket(rng, buckets)
		if b < 0 {
			break
		}
		take(s.flat[buckets[b].start+buckets[b].n-1])
		buckets[b].n--
	}

	// Stage 3: inter-AS. The per-AS quota is inversely proportional to
	// the p-distance from the client's PID to the AS (approximated by
	// the minimum p-distance to any of that AS's candidate PIDs), and
	// within the chosen AS candidates are drawn by the same
	// inverse-distance PID weights as stage 2, so crossing traffic
	// prefers the cheaper interdomain circuits.
	asns := s.asns[:0]
	for _, i := range s.otherAS {
		asns = append(asns, candidates[i].ASN)
	}
	slices.Sort(asns)
	asns = slices.Compact(asns)
	exts := s.exts[:0]
	for range asns {
		exts = append(exts, extAS{})
	}
	for _, i := range s.otherAS {
		a, _ := slices.BinarySearch(asns, candidates[i].ASN)
		s.as[i] = int32(a)
		d := math.Inf(1)
		if pos := s.pos[i]; pos >= 0 {
			d = selfRow[pos]
		}
		if e := &exts[a]; !e.seen {
			e.dist, e.seen = d, true
		} else if d < e.dist {
			e.dist = d
		}
	}
	// Group by AS, then by PID inside each AS: two stable counting
	// sorts, the minor key first.
	s.tmp = s.countingSort(s.tmp, s.otherAS, s.key, s.keys)
	s.flat = s.countingSort(s.flat, s.tmp, s.as, len(exts))
	buckets = buckets[:0]
	for lo, a := 0, 0; lo < len(s.otherAS); a++ {
		hi := lo + 1
		for hi < len(s.otherAS) && s.as[s.flat[hi]] == int32(a) {
			hi++
		}
		exts[a].lo = len(buckets)
		buckets = s.bucketize(buckets, lo, hi, weights)
		exts[a].hi = len(buckets)
		lo = hi
	}
	for _, b := range buckets {
		shuffle(rng, s.flat[b.start:b.start+b.n])
	}
	asTotal := 0.0
	for a := range exts {
		e := &exts[a]
		e.w = 1.0
		if e.dist > 0 {
			e.w = 1 / e.dist
		} else if e.dist == 0 {
			e.w = 1e6
		}
		asTotal += e.w
	}
	for len(out) < m && asTotal > 0 {
		// Draw the AS.
		x := rng.Float64() * asTotal
		chosen := -1
		for a := range exts {
			if exts[a].retired {
				continue
			}
			x -= exts[a].w
			if x <= 0 || chosen < 0 {
				chosen = a
				if x <= 0 {
					break
				}
			}
		}
		if chosen < 0 {
			break
		}
		// Draw the PID within the AS by inverse p-distance.
		e := &exts[chosen]
		b := sampleBucket(rng, buckets[e.lo:e.hi])
		if b < 0 {
			// AS exhausted: retire it.
			asTotal -= e.w
			e.w = 0
			e.retired = true
			continue
		}
		bk := &buckets[e.lo+b]
		take(s.flat[bk.start+bk.n-1])
		bk.n--
	}

	// Backfill if the staged quotas could not reach m but untaken
	// candidates remain (robustness: connectivity first). Preference
	// order keeps the locality caps meaningful: other ASes, then other
	// PIDs in this AS, then the client's own PID as a last resort.
	if len(out) < m {
		for _, pool := range [...][]int{s.otherAS, s.otherPID, s.samePID} {
			class := s.tmp[:0]
			for _, i := range pool {
				if !s.taken[i] {
					class = append(class, i)
				}
			}
			shuffle(rng, class)
			for _, i := range class {
				if len(out) >= m {
					break
				}
				take(i)
			}
			s.tmp = class
		}
	}
	s.asns, s.exts, s.buckets = asns, exts, buckets
	if len(out) == 0 {
		return nil
	}
	return out
}

// interASAdjustment compares the mean p-distance to external-AS
// candidate PIDs against the mean to in-AS candidate PIDs and returns a
// value in [0, 1]: 0 when external peering is no more expensive than
// in-AS (keep the default bound), approaching 1 as external distances
// dwarf in-AS ones (pull nearly all peers in-AS). Each PID counts once
// per side; PIDs not in the view are unreachable and skipped.
func (s *selectScratch) interASAdjustment(selfRow []float64) float64 {
	mean := func(pool []int, mark uint8) (float64, bool) {
		sum, n := 0.0, 0
		for _, i := range pool {
			p := s.pos[i]
			if p < 0 || s.seen[p]&mark != 0 || math.IsInf(selfRow[p], 1) {
				continue
			}
			s.seen[p] |= mark
			sum += selfRow[p]
			n++
		}
		return sum / float64(n), n > 0
	}
	inAvg, inOK := mean(s.otherPID, 1)
	extAvg, extOK := mean(s.otherAS, 2)
	if !inOK || !extOK {
		return 0
	}
	if extAvg <= 0 || extAvg <= inAvg {
		return 0
	}
	// Smoothly approach 1 as extAvg/inAvg grows; at 2x the adjustment
	// is 0.5, at 10x it is 0.9.
	const eps = 1e-12
	ratio := extAvg / (inAvg + eps)
	return 1 - 1/ratio
}

// samplePID draws one key from keys with the given normalized weights,
// skipping keys with empty buckets. Returns false when nothing remains.
func samplePID(rng *rand.Rand, keys []topology.PID, buckets map[topology.PID][]int, weights map[topology.PID]float64) (topology.PID, bool) {
	total := 0.0
	for _, k := range keys {
		if len(buckets[k]) > 0 {
			w := weights[k]
			if w <= 0 {
				// PIDs absent from the weight map (e.g. unreachable)
				// still get a small floor so robustness is preserved.
				w = 1e-9
			}
			total += w
		}
	}
	if total == 0 {
		return 0, false
	}
	x := rng.Float64() * total
	for _, k := range keys {
		if len(buckets[k]) == 0 {
			continue
		}
		w := weights[k]
		if w <= 0 {
			w = 1e-9
		}
		x -= w
		if x <= 0 {
			return k, true
		}
	}
	// Floating point slack: return the last non-empty key.
	for i := len(keys) - 1; i >= 0; i-- {
		if len(buckets[keys[i]]) > 0 {
			return keys[i], true
		}
	}
	return 0, false
}

func shuffle(rng *rand.Rand, s []int) {
	rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
}
