// Package cluster groups phylogenies by structural similarity — the
// paper's §7 future-work item (ii), "finding different types of patterns
// in the trees and using them in phylogenetic data clustering", and the
// post-processing Stockham, Wang & Warnow (reference [37]) apply before
// building per-cluster consensus trees. Distances come from the
// cousin-based tree distance of §5.3, which works even when the trees'
// taxa differ; two standard clusterers are provided: k-medoids (PAM-style
// swap descent) and agglomerative hierarchical clustering with
// single/complete/average linkage. The agglomeration runs on Join, one
// closest-pair-and-merge loop with a Rule of three hooks; package
// reconstruct runs UPGMA and Neighbor-Joining on the same loop.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"treemine/internal/core"
	"treemine/internal/tree"
)

// Matrix is a symmetric pairwise-distance matrix with a zero diagonal.
type Matrix struct {
	n int
	d []float64 // row-major upper triangle, condensed
}

// NewMatrix returns an n×n zero matrix.
func NewMatrix(n int) *Matrix {
	return &Matrix{n: n, d: make([]float64, n*(n-1)/2)}
}

// Len returns the number of points.
func (m *Matrix) Len() int { return m.n }

func (m *Matrix) idx(i, j int) int {
	if i > j {
		i, j = j, i
	}
	// Offset of (i, j), i < j, in the condensed upper triangle.
	return i*(2*m.n-i-1)/2 + (j - i - 1)
}

// Set stores the distance between points i and j (i ≠ j).
func (m *Matrix) Set(i, j int, v float64) {
	if i == j {
		panic("cluster: Set on the diagonal")
	}
	m.d[m.idx(i, j)] = v
}

// At returns the distance between points i and j; the diagonal is 0.
func (m *Matrix) At(i, j int) float64 {
	if i == j {
		return 0
	}
	return m.d[m.idx(i, j)]
}

// TDistMatrix mines every tree once and fills the pairwise cousin-based
// distance matrix under the given variant. It delegates to the profile
// engine in internal/core: one shared symbol table, frozen posting-list
// profiles, and a parallel merge-join fill — so packable options (the
// defaults) never pay the string-keyed path, and large collections use
// every core. The values are identical to mining each pair directly.
func TDistMatrix(trees []*tree.Tree, v core.Variant, opts core.Options) *Matrix {
	dm := core.TDistMatrixParallel(trees, v, opts, 0)
	// core.DistMatrix shares this package's condensed upper-triangle
	// layout, so the backing slice transfers without copying.
	return &Matrix{n: dm.Len(), d: dm.Condensed()}
}

// TDistMatrixCtx is TDistMatrix under a context: cancellation is
// observed within one tree (profiling) or one matrix row (fill), and a
// panicking worker surfaces as an error instead of crashing.
func TDistMatrixCtx(ctx context.Context, trees []*tree.Tree, v core.Variant, opts core.Options) (*Matrix, error) {
	dm, err := core.TDistMatrixParallelCtx(ctx, trees, v, opts, 0)
	if err != nil {
		return nil, err
	}
	return &Matrix{n: dm.Len(), d: dm.Condensed()}, nil
}

// ErrBadK is returned when the requested cluster count is out of range.
var ErrBadK = errors.New("cluster: k out of range")

// KMedoidsResult describes a k-medoids clustering.
type KMedoidsResult struct {
	Medoids    []int // indices of the k representative points
	Assignment []int // Assignment[i] = index into Medoids for point i
	Cost       float64
}

// KMedoids clusters the points of m into k groups by PAM-style swap
// descent from a deterministic seeded start, returning the best of a few
// restarts. The medoid trees are natural "representatives" of phylogeny
// clusters — the single-cluster case degenerates to the kernel-tree idea
// of §5.3.
func KMedoids(m *Matrix, k int, seed int64) (*KMedoidsResult, error) {
	n := m.Len()
	if k < 1 || k > n {
		return nil, fmt.Errorf("%w (k=%d, n=%d)", ErrBadK, k, n)
	}
	rng := rand.New(rand.NewSource(seed))
	var best *KMedoidsResult
	for restart := 0; restart < 4; restart++ {
		res := kMedoidsOnce(m, k, rng)
		if best == nil || res.Cost < best.Cost {
			best = res
		}
	}
	return best, nil
}

// kMedoidsOnce runs one PAM-style descent from a random start. Swap
// candidates are evaluated incrementally: with each point's distance to
// its nearest and second-nearest current medoid cached, the cost change
// of swapping medoid mi for candidate c is a single O(n) pass —
//
//	Δ = Σ_i min(d(i,c), fallback_i) − nearest_i
//
// where fallback_i is second_i when i's nearest medoid is the one being
// removed, and nearest_i otherwise — instead of the O(n·k) full
// reassignment the pre-engine descent recomputed per candidate. Accepted
// swaps (same first-improvement order as before) refresh the cost and
// the caches from scratch, so float drift never accumulates; the
// equivalence with full recomputation is pinned by the differential test
// in cluster_test.go.
func kMedoidsOnce(m *Matrix, k int, rng *rand.Rand) *KMedoidsResult {
	n := m.Len()
	medoids := rng.Perm(n)[:k]
	isMedoid := make([]bool, n)
	for _, md := range medoids {
		isMedoid[md] = true
	}
	// nearD/secD hold each point's distance to its nearest and
	// second-nearest medoid; near holds the index (into medoids) of the
	// nearest. secD is +Inf when k == 1.
	near := make([]int, n)
	nearD := make([]float64, n)
	secD := make([]float64, n)
	rebuild := func() {
		for i := 0; i < n; i++ {
			bi, bd, sd := 0, math.Inf(1), math.Inf(1)
			for mi, md := range medoids {
				d := m.At(i, md)
				if d < bd {
					bi, bd, sd = mi, d, bd
				} else if d < sd {
					sd = d
				}
			}
			near[i], nearD[i], secD[i] = bi, bd, sd
		}
	}
	rebuild()
	cost := assignCost(m, medoids)
	for improved := true; improved; {
		improved = false
		for mi := 0; mi < k && !improved; mi++ {
			for cand := 0; cand < n; cand++ {
				if isMedoid[cand] {
					continue
				}
				delta := 0.0
				for i := 0; i < n; i++ {
					d := m.At(i, cand)
					fallback := nearD[i]
					if near[i] == mi {
						fallback = secD[i]
					}
					if d < fallback {
						fallback = d
					}
					delta += fallback - nearD[i]
				}
				if delta < -1e-15 {
					isMedoid[medoids[mi]] = false
					isMedoid[cand] = true
					medoids[mi] = cand
					rebuild()
					cost = assignCost(m, medoids)
					improved = true
					break
				}
			}
		}
	}
	sort.Ints(medoids)
	rebuild()
	return &KMedoidsResult{Medoids: medoids, Assignment: near, Cost: cost}
}

// assignCost is the full O(n·k) clustering cost: each point's distance
// to its nearest medoid, summed. The descent recomputes it only on
// accepted swaps; tests use it as the ground truth the incremental
// deltas must agree with.
func assignCost(m *Matrix, medoids []int) float64 {
	total := 0.0
	for i := 0; i < m.Len(); i++ {
		best := math.Inf(1)
		for _, md := range medoids {
			if d := m.At(i, md); d < best {
				best = d
			}
		}
		total += best
	}
	return total
}

// Linkage selects the inter-cluster distance for agglomerative
// clustering.
type Linkage int

const (
	// Single linkage merges on the minimum pairwise distance.
	Single Linkage = iota
	// Complete linkage merges on the maximum pairwise distance.
	Complete
	// Average linkage (UPGMA) merges on the mean pairwise distance.
	Average
)

// String names the linkage.
func (l Linkage) String() string {
	switch l {
	case Single:
		return "single"
	case Complete:
		return "complete"
	case Average:
		return "average"
	default:
		return fmt.Sprintf("Linkage(%d)", int(l))
	}
}

// Merge is one agglomeration step: clusters A and B (identified by
// scipy-style ids: 0..n-1 are points, n+i is the cluster born at step i)
// joined at the given distance.
type Merge struct {
	A, B int
	Dist float64
}

// Dendrogram is the full merge history of an agglomerative clustering.
type Dendrogram struct {
	n      int
	Merges []Merge
}

// Agglomerate builds the dendrogram of m under the linkage: Join down
// to one cluster under the linkage's Rule, each step renamed to the
// scipy-style ids of the two clusters it joins.
func Agglomerate(m *Matrix, l Linkage) *Dendrogram {
	n := m.Len()
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			d[i][j] = m.At(i, j)
		}
	}
	steps, _ := Join(d, 1, l.Rule())
	id := make([]int, n) // id[s]: the id of the cluster in slot s
	for i := range id {
		id[i] = i
	}
	den := &Dendrogram{n: n, Merges: make([]Merge, len(steps))}
	for t, st := range steps {
		den.Merges[t] = Merge{A: id[st.I], B: id[st.J], Dist: st.Crit}
		id[st.I] = n + t
	}
	return den
}

// Rule returns the linkage's hooks for Join. Single and complete
// linkage keep each cluster pair's minimum and maximum distance. Average
// linkage keeps the pair's distance sum and scores it divided by the
// product of the cluster sizes, so on integer distances every score is
// the exact mean.
func (l Linkage) Rule() Rule {
	switch l {
	case Single:
		return Rule{Crit: pairDist, Update: func(d [][]float64, _ []int, k, i, j int) float64 {
			return min(d[i][k], d[j][k])
		}}
	case Complete:
		return Rule{Crit: pairDist, Update: func(d [][]float64, _ []int, k, i, j int) float64 {
			return max(d[i][k], d[j][k])
		}}
	default: // Average
		return Rule{
			Crit: func(d [][]float64, size []int, i, j int) float64 {
				return d[i][j] / float64(size[i]*size[j])
			},
			Update: func(d [][]float64, _ []int, k, i, j int) float64 { return d[i][k] + d[j][k] },
		}
	}
}

func pairDist(d [][]float64, _ []int, i, j int) float64 { return d[i][j] }

// Rule is an agglomerative method as the three hooks Join calls around
// its closest-pair loop (the premin/dminfn/dnewfn of Numerical Recipes'
// Phylagglom). d is Join's working matrix and size[s] the number of
// points in slot s's cluster.
type Rule struct {
	// Prep, when set, runs before each scan of the active slots.
	Prep func(d [][]float64, active []int)
	// Crit scores joining slots i and j; the smallest score joins.
	Crit func(d [][]float64, size []int, i, j int) float64
	// Update returns the entry of i and j's joined cluster against slot
	// k, from the matrix and sizes as they were before the join.
	Update func(d [][]float64, size []int, k, i, j int) float64
}

// Step is one join of Join's history: the cluster in slot J joined the
// one in slot I, which holds the result, at score Crit.
type Step struct {
	I, J int
	Crit float64
}

// Join agglomerates the points of the square matrix d under r until
// stop slots (at least one) remain, and returns the joins in order and
// the slots still active. It works on a private copy of d: slot s
// starts as point s, and a join writes Update's entries into row and
// column I. Ties go to the scan order: the active slots are visited as
// positions x < y, and the first pair with the strictly smallest score
// wins, from +Inf with (0, 1) as the default pair. The last active slot
// then moves into J's position. O(n²) memory, O(n³) time.
func Join(d [][]float64, stop int, r Rule) (steps []Step, active []int) {
	n := len(d)
	w, buf := make([][]float64, n), make([]float64, n*n)
	size := make([]int, n)
	active = make([]int, n)
	for i := range w {
		w[i] = buf[i*n : (i+1)*n]
		copy(w[i], d[i])
		size[i], active[i] = 1, i
	}
	for len(active) > max(stop, 1) {
		if r.Prep != nil {
			r.Prep(w, active)
		}
		bx, by, best := 0, 1, math.Inf(1)
		for x, i := range active {
			for y := x + 1; y < len(active); y++ {
				if c := r.Crit(w, size, i, active[y]); c < best {
					bx, by, best = x, y, c
				}
			}
		}
		i, j := active[bx], active[by]
		for _, k := range active {
			if k != i && k != j {
				w[i][k] = r.Update(w, size, k, i, j)
				w[k][i] = w[i][k]
			}
		}
		size[i] += size[j]
		steps = append(steps, Step{I: i, J: j, Crit: best})
		active[by] = active[len(active)-1]
		active = active[:len(active)-1]
	}
	return steps, active
}

// Cut returns the assignment of points to k clusters by undoing the last
// k−1 merges. Labels are 0..k-1 in order of each cluster's smallest
// point.
func (d *Dendrogram) Cut(k int) ([]int, error) {
	if k < 1 || k > d.n {
		return nil, fmt.Errorf("%w (k=%d, n=%d)", ErrBadK, k, d.n)
	}
	parent := make([]int, d.n+len(d.Merges))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	// Apply all but the last k−1 merges.
	for i := 0; i < len(d.Merges)-(k-1); i++ {
		mrg := d.Merges[i]
		id := d.n + i
		parent[find(mrg.A)] = id
		parent[find(mrg.B)] = id
	}
	// Root of each point → label, in order of first appearance by point.
	label := map[int]int{}
	out := make([]int, d.n)
	for i := 0; i < d.n; i++ {
		r := find(i)
		if _, ok := label[r]; !ok {
			label[r] = len(label)
		}
		out[i] = label[r]
	}
	return out, nil
}
