// Package weighted extends cousin-pair mining to trees whose edges carry
// weights — item (i) of the paper's §7 future work. Edge weights model
// evolutionary time or substitution counts on phylogeny branches.
//
// With u, v labeled nodes, a = lca(u, v), and wu, wv the summed edge
// weights from a down to u and v, the weighted cousin distance is
//
//	wdist(u, v) = (wu + wv)/2 − 1,   defined iff |wu − wv| ≤ maxgap
//
// With unit weights and maxgap = 1 this reduces *exactly* to the paper's
// definition: equal depths h give h−1, depths one generation apart give
// min−1+0.5 — the reduction is property-tested against internal/core on
// random trees. The generation-gap tolerance maxgap generalizes the
// paper's hard |h_u − h_v| ≤ 1 cutoff, which §2 itself flags as a
// heuristic rather than a fundamental restriction.
package weighted

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"treemine/internal/lca"
	"treemine/internal/tree"
)

// ErrBadWeight is returned when an edge weight is not a strictly
// positive finite number.
var ErrBadWeight = errors.New("weighted: edge weights must be positive")

// Tree couples a rooted unordered labeled tree with positive edge
// weights. The weight at index n belongs to the edge from n to its
// parent; the root's entry is ignored.
type Tree struct {
	T *tree.Tree
	w []float64
}

// New validates the weights (one per node, positive and finite except
// the root's) and returns the weighted tree. NaN and ±Inf are rejected:
// a NaN distance never equals itself, so it could never key an item.
func New(t *tree.Tree, weights []float64) (*Tree, error) {
	if len(weights) != t.Size() {
		return nil, fmt.Errorf("weighted: %d weights for %d nodes", len(weights), t.Size())
	}
	for n, w := range weights {
		if tree.NodeID(n) == t.Root() {
			continue
		}
		if !(w > 0) || math.IsInf(w, 1) {
			return nil, fmt.Errorf("%w (node %d has %v)", ErrBadWeight, n, w)
		}
	}
	return &Tree{T: t, w: append([]float64(nil), weights...)}, nil
}

// Unit returns t with every edge weight 1, under which mining reduces to
// the paper's unweighted algorithm.
func Unit(t *tree.Tree) *Tree {
	w := make([]float64, t.Size())
	for i := range w {
		w[i] = 1
	}
	wt, err := New(t, w)
	if err != nil {
		panic(err) // unreachable: unit weights are valid
	}
	return wt
}

// Weight returns the weight of the edge from n to its parent.
func (wt *Tree) Weight(n tree.NodeID) float64 { return wt.w[n] }

// Options configure weighted mining.
type Options struct {
	// MaxDist is the largest weighted cousin distance reported.
	MaxDist float64
	// MaxGap is the largest |wu − wv| for which the distance is defined;
	// the paper's unweighted cutoff corresponds to MaxGap = 1.
	MaxGap float64
	// MinOccur is the minimum occurrence count per item.
	MinOccur int
}

// DefaultOptions mirrors the paper's Table 2 under unit weights:
// maxdist 1.5, maxgap 1, minoccur 1.
func DefaultOptions() Options {
	return Options{MaxDist: 1.5, MaxGap: 1, MinOccur: 1}
}

// Key identifies a weighted cousin pair item: an unordered label pair
// and the weighted distance.
type Key struct {
	A, B string
	D    float64
}

// NewKey canonicalizes the label order.
func NewKey(l1, l2 string, d float64) Key {
	if l2 < l1 {
		l1, l2 = l2, l1
	}
	return Key{A: l1, B: l2, D: d}
}

// String formats the key as the paper would print it; the distance is
// shown to four significant digits so accumulated float noise from
// summing branch lengths does not leak into output.
func (k Key) String() string { return fmt.Sprintf("(%s, %s, %.4g)", k.A, k.B, k.D) }

// ItemSet maps weighted items to occurrence counts.
type ItemSet map[Key]int

// Item is one weighted cousin pair item.
type Item struct {
	Key   Key
	Occur int
}

// Items returns the set as a slice sorted by (A, B, D).
func (s ItemSet) Items() []Item {
	out := make([]Item, 0, len(s))
	for k, n := range s {
		out = append(out, Item{Key: k, Occur: n})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Key, out[j].Key
		if a.A != b.A {
			return a.A < b.A
		}
		if a.B != b.B {
			return a.B < b.B
		}
		return a.D < b.D
	})
	return out
}

// Mine returns every weighted cousin pair item of wt with distance at
// most opts.MaxDist, generation gap at most opts.MaxGap, and occurrence
// at least opts.MinOccur. Weighted depths are real numbers, so the
// level-walking enumeration of the unweighted miner does not apply; Mine
// examines all labeled-node pairs through an O(1) LCA index, the Θ(n²)
// bound the paper proves for the unweighted case anyway.
func Mine(wt *Tree, opts Options) ItemSet {
	items := make(ItemSet)
	t := wt.T
	nodes := t.LabeledNodes()
	if len(nodes) >= 2 {
		idx := lca.New(t)
		wdepth := wt.weightedDepths()
		for i := 0; i < len(nodes); i++ {
			for j := i + 1; j < len(nodes); j++ {
				u, v := nodes[i], nodes[j]
				a := idx.LCA(u, v)
				if a == u || a == v {
					continue
				}
				wu := wdepth[u] - wdepth[a]
				wv := wdepth[v] - wdepth[a]
				gap := wu - wv
				if gap < 0 {
					gap = -gap
				}
				if gap > opts.MaxGap+1e-12 {
					continue
				}
				d := (wu+wv)/2 - 1
				if d > opts.MaxDist+1e-12 {
					continue
				}
				items[NewKey(t.MustLabel(u), t.MustLabel(v), d)]++
			}
		}
	}
	for k, n := range items {
		if n < opts.MinOccur {
			delete(items, k)
		}
	}
	return items
}

// weightedDepths returns the summed edge weight from the root to every
// node.
func (wt *Tree) weightedDepths() []float64 {
	t := wt.T
	out := make([]float64, t.Size())
	t.Walk(func(n tree.NodeID) bool {
		if p := t.Parent(n); p != tree.None {
			out[n] = out[p] + wt.w[n]
		}
		return true
	})
	return out
}
