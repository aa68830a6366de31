// Package oracle holds the brute-force references every correctness
// suite compares the system against. It shares no code with what it
// checks: it imports the standard library, internal/tree and
// internal/lca and nothing else from this module, and it works on its
// own plain model, where a key is a label pair plus a distance in
// halves. The miners examine every node pair (the "take pairs of nodes
// and see what kind of cousins they are" approach the paper's §7
// contrasts with its guided enumeration), forest support is a map
// count, DecodeV4 reads a v4 file from the byte layout in DESIGN.md §9
// and §14, and EncodeV2 writes the version-2 gob index file that tests
// of the legacy conversion need as input. Agglomerate, UPGMA and
// NeighborJoining are the three closest-pair loops the agglomeration
// engine of internal/cluster replaced, each coded on its own.
//
// Only test files and the ablation experiment of cmd/benchpaper may
// import this package; `make check` enforces the fence.
package oracle

import (
	"math"
	"sort"

	"treemine/internal/lca"
	"treemine/internal/tree"
)

// Wild is the distance of a key that stands for a label pair at any
// distance.
const Wild = -1

// Key is a cousin-pair item: labels A ≤ B and a distance D in halves
// (D = 3 is distance 1.5), or Wild.
type Key struct {
	A, B string
	D    int
}

// NewKey returns the key of the unordered label pair at distance d.
func NewKey(a, b string, d int) Key {
	if b < a {
		a, b = b, a
	}
	return Key{A: a, B: b, D: d}
}

func (k Key) less(o Key) bool {
	if k.A != o.A {
		return k.A < o.A
	}
	if k.B != o.B {
		return k.B < o.B
	}
	return k.D < o.D
}

// Items is one tree's cousin-pair multiset: each key maps to the number
// of node pairs realizing it.
type Items map[Key]int

// Pair is a key with the number of trees that hold it.
type Pair struct {
	Key     Key
	Support int
}

// MineRooted mines a rooted tree by brute force: for every unordered
// pair of labeled nodes it finds their LCA, derives the cousin distance
// from the two depths below it — twice the cousin degree, plus one when
// removed once; pairs removed more than once are not cousins — and
// keeps the pairs within maxDist; then it drops the keys occurring
// fewer than minOccur times. It is Θ(n²) whatever the output size.
func MineRooted(t *tree.Tree, maxDist, minOccur int) Items {
	items := Items{}
	nodes := t.LabeledNodes()
	if len(nodes) < 2 {
		return items
	}
	idx := lca.New(t)
	for i, u := range nodes {
		for _, v := range nodes[i+1:] {
			a := idx.LCA(u, v)
			if a == u || a == v {
				continue // one is an ancestor of the other
			}
			hu, hv := t.Depth(u)-t.Depth(a), t.Depth(v)-t.Depth(a)
			lo, gap := min(hu, hv), max(hu, hv)-min(hu, hv)
			if d := 2*(lo-1) + gap; gap <= 1 && d <= maxDist {
				items[NewKey(t.MustLabel(u), t.MustLabel(v), d)]++
			}
		}
	}
	return items.minOccur(minOccur)
}

// MineTrees mines each tree with MineRooted.
func MineTrees(trees []*tree.Tree, maxDist, minOccur int) []Items {
	sets := make([]Items, len(trees))
	for i, t := range trees {
		sets[i] = MineRooted(t, maxDist, minOccur)
	}
	return sets
}

// Graph is a free tree: node i carries Labels[i] when Labeled[i], and
// Adj[i] lists its neighbours. It must be connected and acyclic.
type Graph struct {
	Labels  []string
	Labeled []bool
	Adj     [][]int
}

// MineFree mines a free tree by brute force: a breadth-first search
// from every labeled node measures the path length n to every other
// labeled node, and a path of n ≥ 2 edges is a cousin pair at distance
// n/2 − 1 (the paper's Eq. 7), that is n − 2 halves.
func MineFree(g Graph, maxDist, minOccur int) Items {
	items := Items{}
	n := len(g.Adj)
	for u := 0; u < n; u++ {
		if !g.Labeled[u] {
			continue
		}
		dist := map[int]int{u: 0}
		for queue := []int{u}; len(queue) > 0; queue = queue[1:] {
			for _, y := range g.Adj[queue[0]] {
				if _, seen := dist[y]; !seen {
					dist[y] = dist[queue[0]] + 1
					queue = append(queue, y)
				}
			}
		}
		for v := u + 1; v < n; v++ {
			if g.Labeled[v] && dist[v] >= 2 && dist[v]-2 <= maxDist {
				items[NewKey(g.Labels[u], g.Labels[v], dist[v]-2)]++
			}
		}
	}
	return items.minOccur(minOccur)
}

func (s Items) minOccur(m int) Items {
	for k, n := range s {
		if n < m {
			delete(s, k)
		}
	}
	return s
}

// Records returns every key the trees hold with the number of trees
// holding it, in key order (A, then B, then D). With ignoreDist each
// tree's keys first collapse to their label pairs at Wild.
func Records(sets []Items, ignoreDist bool) []Pair {
	support := map[Key]int{}
	for _, s := range sets {
		seen := map[Key]bool{}
		for k := range s {
			if ignoreDist {
				k.D = Wild
			}
			if !seen[k] {
				seen[k] = true
				support[k]++
			}
		}
	}
	var out []Pair
	for k, n := range support {
		out = append(out, Pair{Key: k, Support: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key.less(out[j].Key) })
	return out
}

// Forest is naive multiple-tree mining: the Records with support ≥
// minSup, by support descending, then A, B and D.
func Forest(sets []Items, minSup int, ignoreDist bool) []Pair {
	var out []Pair
	for _, p := range Records(sets, ignoreDist) {
		if p.Support >= minSup {
			out = append(out, p)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Support > out[j].Support })
	return out
}

// Support counts the trees holding the label pair at distance d, or,
// for Wild, at any distance. The sets hold concrete distances.
func Support(sets []Items, a, b string, d int) int {
	want := NewKey(a, b, d)
	n := 0
	for _, s := range sets {
		for k := range s {
			if k.A == want.A && k.B == want.B && (k.D == d || d == Wild) {
				n++
				break
			}
		}
	}
	return n
}

// View selects the components the tree distance compares: the paper's
// four tdist variants (§5.3), in the order it lists them.
type View int

const (
	ViewLabel     View = iota // label pairs only
	ViewDist                  // label pairs and distance
	ViewOccur                 // label pairs and occurrence counts
	ViewDistOccur             // all three
)

// Project returns s projected onto v's components.
func (s Items) Project(v View) Items {
	out := Items{}
	for k, n := range s {
		if v == ViewLabel || v == ViewOccur {
			k.D = Wild
		}
		if v == ViewLabel || v == ViewDist {
			out[k] = 1
		} else {
			out[k] += n
		}
	}
	return out
}

// Total returns the multiset's cardinality.
func (s Items) Total() int {
	n := 0
	for _, c := range s {
		n += c
	}
	return n
}

// TDist is the cousin tree distance (Eq. 6): 1 − |∩|/|∪| over the two
// multisets projected onto v, with min and max of the shared counts.
func TDist(s1, s2 Items, v View) float64 {
	a, b := s1.Project(v), s2.Project(v)
	inter := 0
	for k, n := range a {
		inter += min(n, b[k])
	}
	union := a.Total() + b.Total() - inter
	if union == 0 {
		return 0
	}
	return 1 - float64(inter)/float64(union)
}

// Sim is the similarity score σ (Eq. 4): over the label pairs both
// trees hold at some distance, the sum of 1/(1 + |dc − dt|) of their
// smallest distances. The terms are summed in ascending order, so the
// result does not depend on map order and σ(C,T) == σ(T,C) exactly.
func Sim(c, t Items) float64 {
	cMin, tMin := minDists(c), minDists(t)
	var terms []float64
	for p, dc := range cMin {
		if dt, ok := tMin[p]; ok {
			terms = append(terms, 1/(1+math.Abs(float64(dc-dt)/2)))
		}
	}
	sort.Float64s(terms)
	sum := 0.0
	for _, x := range terms {
		sum += x
	}
	return sum
}

// minDists maps each label pair of s to its smallest distance.
func minDists(s Items) map[[2]string]int {
	out := map[[2]string]int{}
	for k := range s {
		p := [2]string{k.A, k.B}
		if d, ok := out[p]; k.D != Wild && (!ok || k.D < d) {
			out[p] = k.D
		}
	}
	return out
}
