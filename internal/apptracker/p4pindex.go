package apptracker

import (
	"cmp"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"

	"p4p/internal/core"
	"p4p/internal/topology"
)

// viewIndex is what P4P.Select needs of one view besides its matrix: a
// PID → position lookup, the PIDs in ascending order, and one weight
// row per source PID. Views are immutable once handed out, so an index
// stays valid for as long as its view pointer is the one being served.
type viewIndex struct {
	view  *core.View
	gamma float64

	// pids is view.PIDs in ascending order, order the position of each,
	// and rank the inverse: rank[order[r]] == r. The sort is stable, so
	// a duplicated PID resolves to its first position, as View.Index
	// does.
	pids  []topology.PID
	order []int32
	rank  []int32
	// dense[pid-pids[0]] is the PID's position+1 (0: not in the view).
	// It is nil when the PID range is too sparse for a slice, and
	// position binary-searches pids instead.
	dense []int32

	// rows[pos] is Weights(view.PIDs[pos], gamma) as a row over
	// positions (0 where the map has no entry), built on first use.
	rows []atomic.Pointer[[]float64]
}

// indexFor returns the index of v for gamma, building it when v is not
// the view the cached index was built for. One entry suffices: a
// selector follows one view, and a new view version replaces it. The
// identity key is the pattern federation.MergeCache uses.
func (p *P4P) indexFor(v *core.View, gamma float64) *viewIndex {
	if ix := p.index.Load(); ix != nil && ix.view == v && ix.gamma == gamma {
		return ix
	}
	ix := newViewIndex(v, gamma)
	p.index.Store(ix)
	return ix
}

func newViewIndex(v *core.View, gamma float64) *viewIndex {
	n := len(v.PIDs)
	ix := &viewIndex{
		view:  v,
		gamma: gamma,
		pids:  make([]topology.PID, n),
		order: make([]int32, n),
		rank:  make([]int32, n),
		rows:  make([]atomic.Pointer[[]float64], n),
	}
	for pos := range ix.order {
		ix.order[pos] = int32(pos)
	}
	slices.SortStableFunc(ix.order, func(a, b int32) int { return cmp.Compare(v.PIDs[a], v.PIDs[b]) })
	for r, pos := range ix.order {
		ix.rank[pos] = int32(r)
		ix.pids[r] = v.PIDs[pos]
	}
	if n == 0 {
		return ix
	}
	// The span is computed unsigned so extreme PIDs cannot overflow it.
	if span := uint64(ix.pids[n-1]) - uint64(ix.pids[0]); span < uint64(4*n+64) {
		ix.dense = make([]int32, span+1)
		for pos := n - 1; pos >= 0; pos-- {
			ix.dense[v.PIDs[pos]-ix.pids[0]] = int32(pos) + 1
		}
	}
	return ix
}

// position returns the view position of pid.
func (ix *viewIndex) position(pid topology.PID) (int32, bool) {
	if ix.dense != nil {
		if pid < ix.pids[0] || pid > ix.pids[len(ix.pids)-1] {
			return -1, false
		}
		pos := ix.dense[pid-ix.pids[0]] - 1
		return pos, pos >= 0
	}
	r, ok := slices.BinarySearch(ix.pids, pid)
	if !ok {
		return -1, false
	}
	return ix.order[r], true
}

// weightRow returns the selection weights from the PID at pos, indexed
// by position. Concurrent first uses may each build the row; they
// build the same values, and either copy serves.
func (ix *viewIndex) weightRow(pos int32) []float64 {
	if row := ix.rows[pos].Load(); row != nil {
		return *row
	}
	w := ix.view.Weights(ix.view.PIDs[pos], ix.gamma)
	row := make([]float64, len(ix.view.PIDs))
	for b, pid := range ix.view.PIDs {
		row[b] = w[pid]
	}
	ix.rows[pos].Store(&row)
	return row
}

// selectScratch is one Select call's working memory, recycled through
// scratchPool so that a warm Select allocates little beyond its result.
// Every field is resized and overwritten before it is read.
type selectScratch struct {
	// Per candidate: view position (-1: PID not in the view), bucket
	// key, external-AS index, and whether it is already chosen. Keys
	// number the distinct PIDs of the view and of the candidates in
	// ascending PID order, so ordering by key is ordering by PID.
	pos   []int32
	key   []int32
	as    []int32
	taken []bool
	keys  int // number of key values

	// The candidates other than self, in candidate order, by where
	// they sit relative to self: its PID, another PID of its AS,
	// another AS. Stages 1 and 2 take only from self's AS, so each
	// stage's pool is fixed before the selection starts.
	samePID, otherPID, otherAS []int

	seen    []uint8        // per view position, for interASAdjustment
	absent  []topology.PID // candidate PIDs not in the view, ascending
	tmp     []int
	flat    []int // candidates grouped into buckets
	count   []int32
	buckets []bucket
	asns    []int
	exts    []extAS
}

var scratchPool = sync.Pool{New: func() any { return new(selectScratch) }}

// bucket is a run flat[start:start+n] of candidates sharing a PID (and,
// in stage 3, an AS). Draws take the last member and shrink n.
type bucket struct {
	start, n int
	w        float64 // sampling weight, floored at 1e-9
}

// extAS is one external AS in stage 3: its minimum distance from self,
// its draw weight, and its buckets buckets[lo:hi].
type extAS struct {
	dist, w       float64
	seen, retired bool
	lo, hi        int
}

// resize returns s with length n, reusing its array when large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// locate resets the scratch for self and candidates over ix:
// positions, keys, pools, and cleared taken and seen marks.
func (s *selectScratch) locate(ix *viewIndex, self Node, candidates []Node) {
	n := len(candidates)
	s.pos = resize(s.pos, n)
	s.key = resize(s.key, n)
	s.as = resize(s.as, n)
	s.taken = resize(s.taken, n)
	clear(s.taken)
	s.seen = resize(s.seen, len(ix.pids))
	clear(s.seen)
	s.samePID, s.otherPID, s.otherAS = s.samePID[:0], s.otherPID[:0], s.otherAS[:0]
	absent := s.absent[:0]
	for i, c := range candidates {
		pos, ok := ix.position(c.PID)
		s.pos[i] = pos
		if ok {
			s.key[i] = ix.rank[pos]
		} else {
			absent = append(absent, c.PID)
		}
		switch {
		case c.ID == self.ID:
		case c.ASN != self.ASN:
			s.otherAS = append(s.otherAS, i)
		case c.PID != self.PID:
			s.otherPID = append(s.otherPID, i)
		default:
			s.samePID = append(s.samePID, i)
		}
	}
	s.keys = len(ix.pids)
	if len(absent) > 0 {
		// A PID's key is the number of view and absent PIDs below it.
		slices.Sort(absent)
		absent = slices.Compact(absent)
		for i, c := range candidates {
			below, _ := slices.BinarySearch(absent, c.PID)
			if s.pos[i] >= 0 {
				s.key[i] += int32(below)
			} else {
				inView, _ := slices.BinarySearch(ix.pids, c.PID)
				s.key[i] = int32(inView + below)
			}
		}
		s.keys += len(absent)
	}
	s.absent = absent
}

// countingSort writes src into dst ordered by key[i] in [0, k), keeping
// src's order among equal keys.
func (s *selectScratch) countingSort(dst, src []int, key []int32, k int) []int {
	count := resize(s.count, k+1)
	clear(count)
	for _, i := range src {
		count[key[i]+1]++
	}
	for j := 1; j <= k; j++ {
		count[j] += count[j-1]
	}
	dst = resize(dst, len(src))
	for _, i := range src {
		dst[count[key[i]]] = i
		count[key[i]]++
	}
	s.count = count
	return dst
}

// bucketize appends one bucket per run of equal keys in flat[lo:hi],
// weighted from the source's weight row; candidates whose PID has no
// weight (self's PID, unreachable, not in the view) get the 1e-9 floor
// so robustness is preserved.
func (s *selectScratch) bucketize(dst []bucket, lo, hi int, weights []float64) []bucket {
	for start := lo; start < hi; {
		key := s.key[s.flat[start]]
		end := start + 1
		for end < hi && s.key[s.flat[end]] == key {
			end++
		}
		w := 0.0
		if pos := s.pos[s.flat[start]]; pos >= 0 {
			w = weights[pos]
		}
		if w <= 0 {
			w = 1e-9
		}
		dst = append(dst, bucket{start: start, n: end - start, w: w})
		start = end
	}
	return dst
}

// sampleBucket draws one non-empty bucket with probability proportional
// to its weight and returns its index, or -1 when all are empty.
func sampleBucket(rng *rand.Rand, buckets []bucket) int {
	total := 0.0
	for _, b := range buckets {
		if b.n > 0 {
			total += b.w
		}
	}
	if total == 0 {
		return -1
	}
	x := rng.Float64() * total
	for k, b := range buckets {
		if b.n == 0 {
			continue
		}
		x -= b.w
		if x <= 0 {
			return k
		}
	}
	// Floating point slack: return the last non-empty bucket.
	for k := len(buckets) - 1; k >= 0; k-- {
		if buckets[k].n > 0 {
			return k
		}
	}
	return -1
}
