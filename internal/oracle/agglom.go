package oracle

import (
	"math"

	"treemine/internal/tree"
)

// Merge is one agglomeration step: clusters A and B, with scipy-style
// ids (0..n-1 are points, n+i is the cluster born at step i), joined at
// distance Dist.
type Merge struct {
	A, B int
	Dist float64
}

// Agglomerate is hierarchical clustering by the straightforward O(n³)
// algorithm: at every step each cluster pair's linkage distance is
// recomputed from its point lists — the minimum pairwise distance for
// "single", the maximum for "complete", the mean for any other linkage
// — and the first closest pair joins, the merged cluster in the first
// one's place and the last cluster moved into the second one's.
func Agglomerate(d [][]float64, linkage string) []Merge {
	n := len(d)
	if n == 0 {
		return nil
	}
	type cl struct {
		id     int
		points []int
	}
	clusters := make([]cl, n)
	for i := range clusters {
		clusters[i] = cl{id: i, points: []int{i}}
	}
	linkDist := func(a, b cl) float64 {
		switch linkage {
		case "single":
			best := math.Inf(1)
			for _, x := range a.points {
				for _, y := range b.points {
					if v := d[x][y]; v < best {
						best = v
					}
				}
			}
			return best
		case "complete":
			worst := math.Inf(-1)
			for _, x := range a.points {
				for _, y := range b.points {
					if v := d[x][y]; v > worst {
						worst = v
					}
				}
			}
			return worst
		default: // average
			sum := 0.0
			for _, x := range a.points {
				for _, y := range b.points {
					sum += d[x][y]
				}
			}
			return sum / float64(len(a.points)*len(b.points))
		}
	}
	var merges []Merge
	nextID := n
	for len(clusters) > 1 {
		bi, bj, bd := 0, 1, math.Inf(1)
		for i := 0; i < len(clusters); i++ {
			for j := i + 1; j < len(clusters); j++ {
				if v := linkDist(clusters[i], clusters[j]); v < bd {
					bi, bj, bd = i, j, v
				}
			}
		}
		merges = append(merges, Merge{A: clusters[bi].id, B: clusters[bj].id, Dist: bd})
		merged := cl{id: nextID, points: append(append([]int(nil),
			clusters[bi].points...), clusters[bj].points...)}
		nextID++
		clusters[bj] = clusters[len(clusters)-1]
		clusters = clusters[:len(clusters)-1]
		clusters[bi] = merged
	}
	return merges
}

// shape is a parent-pointer scaffold emitted into a tree.Builder once
// construction finishes.
type shape struct {
	label string
	kids  []*shape
}

func emit(s *shape, parent tree.NodeID, b *tree.Builder) {
	var id tree.NodeID
	switch {
	case len(s.kids) == 0 && parent == tree.None:
		id = b.Root(s.label)
	case len(s.kids) == 0:
		id = b.Child(parent, s.label)
	case parent == tree.None:
		id = b.RootUnlabeled()
	default:
		id = b.ChildUnlabeled(parent)
	}
	for _, k := range s.kids {
		emit(k, id, b)
	}
}

// UPGMA builds a rooted binary tree by joining the closest pair of
// clusters under average linkage, kept as a size-weighted average of
// the two joined rows. d must be a valid distance matrix over at least
// two names.
func UPGMA(names []string, d [][]float64) (*tree.Tree, error) {
	n := len(names)
	nodes := make([]*shape, n)
	sizes := make([]int, n)
	for i, name := range names {
		nodes[i] = &shape{label: name}
		sizes[i] = 1
	}
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = append([]float64(nil), d[i]...)
	}
	active := make([]int, n)
	for i := range active {
		active[i] = i
	}
	for len(active) > 1 {
		bi, bj := 0, 1
		for i := 0; i < len(active); i++ {
			for j := i + 1; j < len(active); j++ {
				if dist[active[i]][active[j]] < dist[active[bi]][active[bj]] {
					bi, bj = i, j
				}
			}
		}
		a, b := active[bi], active[bj]
		merged := &shape{kids: []*shape{nodes[a], nodes[b]}}
		for _, k := range active {
			if k == a || k == b {
				continue
			}
			dist[a][k] = (dist[a][k]*float64(sizes[a]) + dist[b][k]*float64(sizes[b])) /
				float64(sizes[a]+sizes[b])
			dist[k][a] = dist[a][k]
		}
		nodes[a] = merged
		sizes[a] += sizes[b]
		active[bj] = active[len(active)-1]
		active = active[:len(active)-1]
	}
	b := tree.NewBuilder()
	emit(nodes[active[0]], tree.None, b)
	return b.Build()
}

// NeighborJoining builds a tree by the Saitou–Nei criterion, rebuilding
// the row sums at every step, and roots it at the final three-way join.
// d must be a valid distance matrix over at least two names.
func NeighborJoining(names []string, d [][]float64) (*tree.Tree, error) {
	n := len(names)
	nodes := make([]*shape, n)
	for i, name := range names {
		nodes[i] = &shape{label: name}
	}
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = append([]float64(nil), d[i]...)
	}
	active := make([]int, n)
	for i := range active {
		active[i] = i
	}
	for len(active) > 3 {
		m := len(active)
		r := make(map[int]float64, m)
		for _, i := range active {
			for _, j := range active {
				r[i] += dist[i][j]
			}
		}
		bi, bj := 0, 1
		bestQ := 0.0
		first := true
		for x := 0; x < m; x++ {
			for y := x + 1; y < m; y++ {
				i, j := active[x], active[y]
				q := float64(m-2)*dist[i][j] - r[i] - r[j]
				if first || q < bestQ {
					bestQ, bi, bj, first = q, x, y, false
				}
			}
		}
		a, b := active[bi], active[bj]
		merged := &shape{kids: []*shape{nodes[a], nodes[b]}}
		for _, k := range active {
			if k == a || k == b {
				continue
			}
			nd := (dist[a][k] + dist[b][k] - dist[a][b]) / 2
			if nd < 0 {
				nd = 0
			}
			dist[a][k] = nd
			dist[k][a] = nd
		}
		nodes[a] = merged
		active[bj] = active[len(active)-1]
		active = active[:len(active)-1]
	}
	root := &shape{}
	for _, i := range active {
		root.kids = append(root.kids, nodes[i])
	}
	if len(root.kids) == 1 {
		root = root.kids[0]
	}
	b := tree.NewBuilder()
	emit(root, tree.None, b)
	return b.Build()
}
