package apptracker

import (
	"math"
	"math/rand"
	"sort"

	"p4p/internal/core"
	"p4p/internal/topology"
)

// refP4P is the map-based three-stage selector P4P.Select replaced,
// kept verbatim as the differential oracle: TestP4PSelectMatchesReference
// and FuzzP4PSelect require the indexed selector to return the same
// indices and leave the rng in the same state. Only the identifiers
// differ (refP4P, refInterASAdjustment, refSamplePID). It panics on
// PIDs absent from the view, so the oracle cases keep every PID in it.
type refP4P struct {
	Views  ViewProvider
	Config P4PConfig
}

// Select is the replaced P4P.Select.
func (p *refP4P) Select(self Node, candidates []Node, m int, rng *rand.Rand) []int {
	cfg := p.Config.withDefaults()
	view := p.Views.ViewFor(self.ASN)
	if view == nil {
		// No iTracker covers this AS: applications make default
		// decisions (the paper's robustness answer) — fall back to
		// random selection.
		return Random{}.Select(self, candidates, m, rng)
	}
	taken := make([]bool, len(candidates))
	var out []int
	take := func(i int) {
		taken[i] = true
		out = append(out, i)
	}

	// Stage 1: intra-PID.
	intraCap := int(cfg.UpperBoundIntraPID * float64(m))
	var intra []int
	for i, c := range candidates {
		if c.ID != self.ID && c.ASN == self.ASN && c.PID == self.PID {
			intra = append(intra, i)
		}
	}
	shuffle(rng, intra)
	for _, i := range intra {
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
	if adj := refInterASAdjustment(view, self, candidates); adj > 0 {
		interFrac += (1 - cfg.UpperBoundInterPID) * adj
	}
	interCap := int(interFrac * float64(m))
	weights := view.Weights(self.PID, cfg.Gamma)
	byPID := map[topology.PID][]int{}
	var pidsInAS []topology.PID
	for i, c := range candidates {
		if taken[i] || c.ID == self.ID || c.ASN != self.ASN || c.PID == self.PID {
			continue
		}
		if _, seen := byPID[c.PID]; !seen {
			pidsInAS = append(pidsInAS, c.PID)
		}
		byPID[c.PID] = append(byPID[c.PID], i)
	}
	sort.Slice(pidsInAS, func(a, b int) bool { return pidsInAS[a] < pidsInAS[b] })
	for _, pid := range pidsInAS {
		shuffle(rng, byPID[pid])
	}
	for len(out) < interCap {
		pid, ok := refSamplePID(rng, pidsInAS, byPID, weights)
		if !ok {
			break
		}
		bucket := byPID[pid]
		take(bucket[len(bucket)-1])
		byPID[pid] = bucket[:len(bucket)-1]
	}

	// Stage 3: inter-AS. The per-AS quota is inversely proportional to
	// the p-distance from the client's PID to the AS (approximated by
	// the minimum p-distance to any of that AS's candidate PIDs), and
	// within the chosen AS candidates are drawn by the same
	// inverse-distance PID weights as stage 2, so crossing traffic
	// prefers the cheaper interdomain circuits.
	var externASNs []int
	byASPID := map[int]map[topology.PID][]int{}
	asPIDs := map[int][]topology.PID{}
	asDist := map[int]float64{}
	for i, c := range candidates {
		if taken[i] || c.ID == self.ID || c.ASN == self.ASN {
			continue
		}
		if _, seen := byASPID[c.ASN]; !seen {
			externASNs = append(externASNs, c.ASN)
			byASPID[c.ASN] = map[topology.PID][]int{}
			asDist[c.ASN] = view.Distance(self.PID, c.PID)
		} else if d := view.Distance(self.PID, c.PID); d < asDist[c.ASN] {
			asDist[c.ASN] = d
		}
		if _, seen := byASPID[c.ASN][c.PID]; !seen {
			asPIDs[c.ASN] = append(asPIDs[c.ASN], c.PID)
		}
		byASPID[c.ASN][c.PID] = append(byASPID[c.ASN][c.PID], i)
	}
	sort.Ints(externASNs)
	for _, asn := range externASNs {
		sort.Slice(asPIDs[asn], func(a, b int) bool { return asPIDs[asn][a] < asPIDs[asn][b] })
		for _, pid := range asPIDs[asn] {
			shuffle(rng, byASPID[asn][pid])
		}
	}
	asWeight := map[int]float64{}
	asTotal := 0.0
	for _, asn := range externASNs {
		d := asDist[asn]
		w := 1.0
		if d > 0 {
			w = 1 / d
		} else if d == 0 {
			w = 1e6
		}
		asWeight[asn] = w
		asTotal += w
	}
	pidWeights := view.Weights(self.PID, cfg.Gamma)
	for len(out) < m && asTotal > 0 {
		// Draw the AS.
		x := rng.Float64() * asTotal
		chosen := -1
		for _, asn := range externASNs {
			if len(asPIDs[asn]) == 0 {
				continue
			}
			x -= asWeight[asn]
			if x <= 0 || chosen < 0 {
				chosen = asn
				if x <= 0 {
					break
				}
			}
		}
		if chosen < 0 {
			break
		}
		// Draw the PID within the AS by inverse p-distance.
		pid, ok := refSamplePID(rng, asPIDs[chosen], byASPID[chosen], pidWeights)
		if !ok {
			// AS exhausted: retire it.
			asTotal -= asWeight[chosen]
			asWeight[chosen] = 0
			asPIDs[chosen] = nil
			continue
		}
		bucket := byASPID[chosen][pid]
		take(bucket[len(bucket)-1])
		byASPID[chosen][pid] = bucket[:len(bucket)-1]
	}

	// Backfill if the staged quotas could not reach m but untaken
	// candidates remain (robustness: connectivity first). Preference
	// order keeps the locality caps meaningful: other ASes, then other
	// PIDs in this AS, then the client's own PID as a last resort.
	if len(out) < m {
		var otherAS, otherPID, samePID []int
		for i, c := range candidates {
			if taken[i] || c.ID == self.ID {
				continue
			}
			switch {
			case c.ASN != self.ASN:
				otherAS = append(otherAS, i)
			case c.PID != self.PID:
				otherPID = append(otherPID, i)
			default:
				samePID = append(samePID, i)
			}
		}
		for _, class := range [][]int{otherAS, otherPID, samePID} {
			shuffle(rng, class)
			for _, i := range class {
				if len(out) >= m {
					break
				}
				take(i)
			}
		}
	}
	return out
}

// refInterASAdjustment compares the mean p-distance to external-AS
// candidate PIDs against the mean to in-AS candidate PIDs and returns a
// value in [0, 1]: 0 when external peering is no more expensive than
// in-AS (keep the default bound), approaching 1 as external distances
// dwarf in-AS ones (pull nearly all peers in-AS).
func refInterASAdjustment(view *core.View, self Node, candidates []Node) float64 {
	var inSum, extSum float64
	var inN, extN int
	seenIn := map[topology.PID]bool{}
	seenExt := map[topology.PID]bool{}
	for _, c := range candidates {
		if c.ID == self.ID {
			continue
		}
		d := view.Distance(self.PID, c.PID)
		if math.IsInf(d, 1) {
			continue
		}
		if c.ASN == self.ASN {
			if c.PID != self.PID && !seenIn[c.PID] {
				seenIn[c.PID] = true
				inSum += d
				inN++
			}
		} else if !seenExt[c.PID] {
			seenExt[c.PID] = true
			extSum += d
			extN++
		}
	}
	if inN == 0 || extN == 0 {
		return 0
	}
	inAvg := inSum / float64(inN)
	extAvg := extSum / float64(extN)
	if extAvg <= 0 || extAvg <= inAvg {
		return 0
	}
	// Smoothly approach 1 as extAvg/inAvg grows; at 2x the adjustment
	// is 0.5, at 10x it is 0.9.
	const eps = 1e-12
	ratio := extAvg / (inAvg + eps)
	return 1 - 1/ratio
}

// refSamplePID draws one key from keys with the given normalized weights,
// skipping keys with empty buckets. Returns false when nothing remains.
func refSamplePID(rng *rand.Rand, keys []topology.PID, buckets map[topology.PID][]int, weights map[topology.PID]float64) (topology.PID, bool) {
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
