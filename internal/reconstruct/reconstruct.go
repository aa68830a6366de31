// Package reconstruct builds phylogenies from pairwise distance data:
// UPGMA (average-linkage agglomeration, which assumes a molecular clock)
// and Neighbor-Joining (Saitou & Nei 1987, consistent on any additive
// distance). Both run cluster.Join, the one closest-pair loop: UPGMA
// under average linkage's rule and NJ under its own Q-criterion rule,
// and one emitter turns the join history into a tree. Together with
// internal/parsimony these cover the two classic reconstruction
// families the paper's pipeline draws trees from — §6 notes that MP
// and ML methods produce the unrooted trees the free-tree extension
// targets, and distance methods are the third standard source of input
// phylogenies for mining.
package reconstruct

import (
	"errors"
	"fmt"

	"treemine/internal/cluster"
	"treemine/internal/seqsim"
	"treemine/internal/tree"
)

// Errors reported by the builders.
var (
	// ErrBadMatrix is returned when the distance matrix is not square,
	// not symmetric, has a non-zero diagonal, or has negative entries.
	ErrBadMatrix = errors.New("reconstruct: invalid distance matrix")
	// ErrTooFewTaxa is returned for fewer than two taxa.
	ErrTooFewTaxa = errors.New("reconstruct: need at least 2 taxa")
)

func validate(names []string, d [][]float64) error {
	n := len(names)
	if n < 2 {
		return ErrTooFewTaxa
	}
	if len(d) != n {
		return fmt.Errorf("%w: %d rows for %d taxa", ErrBadMatrix, len(d), n)
	}
	for i := range d {
		if len(d[i]) != n {
			return fmt.Errorf("%w: row %d has %d entries", ErrBadMatrix, i, len(d[i]))
		}
		if d[i][i] != 0 {
			return fmt.Errorf("%w: non-zero diagonal at %d", ErrBadMatrix, i)
		}
		for j := range d[i] {
			if d[i][j] < 0 {
				return fmt.Errorf("%w: negative entry (%d,%d)", ErrBadMatrix, i, j)
			}
			if d[i][j] != d[j][i] {
				return fmt.Errorf("%w: asymmetric at (%d,%d)", ErrBadMatrix, i, j)
			}
		}
	}
	return nil
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

// UPGMA reconstructs a rooted binary phylogeny by repeatedly joining the
// closest pair of clusters under average linkage: cluster.Join under
// cluster.Average's rule, read into a tree. On ultrametric distances (a
// perfect molecular clock) it recovers the true topology.
func UPGMA(names []string, d [][]float64) (*tree.Tree, error) {
	if err := validate(names, d); err != nil {
		return nil, err
	}
	return build(names, d, 1, cluster.Average.Rule())
}

// NeighborJoining reconstructs a phylogeny with the Saitou–Nei
// neighbor-joining criterion. NJ trees are inherently unrooted; the
// returned rooted tree places the root at the final three-way join (the
// conventional presentation), leaving a trifurcating root for n ≥ 3.
// On additive distances NJ recovers the true topology.
func NeighborJoining(names []string, d [][]float64) (*tree.Tree, error) {
	if err := validate(names, d); err != nil {
		return nil, err
	}
	return build(names, d, 3, njRule(len(d)))
}

// njRule is the neighbor-joining rule for n taxa. Prep takes the row
// sums r over the m active slots, Crit is Q(i, j) = (m−2)·d(i,j) − r(i)
// − r(j), and the joined node's distance to k is (d(i,k) + d(j,k) −
// d(i,j))/2, clamped at 0.
func njRule(n int) cluster.Rule {
	r, m := make([]float64, n), 0
	return cluster.Rule{
		Prep: func(d [][]float64, active []int) {
			m = len(active)
			for _, i := range active {
				r[i] = 0
				for _, j := range active {
					r[i] += d[i][j]
				}
			}
		},
		Crit: func(d [][]float64, _ []int, i, j int) float64 {
			return float64(m-2)*d[i][j] - r[i] - r[j]
		},
		Update: func(d [][]float64, _ []int, k, i, j int) float64 {
			return max((d[i][k]+d[j][k]-d[i][j])/2, 0)
		},
	}
}

// build joins d under r down to stop clusters and emits the history as
// a tree: each join is a new node over the two joined subtrees, and the
// clusters left at the end hang from the root (one left is the root).
func build(names []string, d [][]float64, stop int, r cluster.Rule) (*tree.Tree, error) {
	nodes := make([]*shape, len(names))
	for i, name := range names {
		nodes[i] = &shape{label: name}
	}
	steps, active := cluster.Join(d, stop, r)
	for _, st := range steps {
		nodes[st.I] = &shape{kids: []*shape{nodes[st.I], nodes[st.J]}}
	}
	root := nodes[active[0]]
	if len(active) > 1 {
		root = &shape{}
		for _, i := range active {
			root.kids = append(root.kids, nodes[i])
		}
	}
	b := tree.NewBuilder()
	emit(root, tree.None, b)
	return b.Build()
}

// PDistance returns the observed-proportion (Hamming) distance matrix of
// an alignment, the standard input to UPGMA/NJ on sequence data.
func PDistance(a *seqsim.Alignment) ([]string, [][]float64, error) {
	if err := a.Validate(); err != nil {
		return nil, nil, err
	}
	n := a.NumTaxa()
	sites := a.Len()
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		si := a.Seqs[a.Taxa[i]]
		for j := i + 1; j < n; j++ {
			sj := a.Seqs[a.Taxa[j]]
			diff := 0
			for k := 0; k < sites; k++ {
				if si[k] != sj[k] {
					diff++
				}
			}
			p := 0.0
			if sites > 0 {
				p = float64(diff) / float64(sites)
			}
			d[i][j], d[j][i] = p, p
		}
	}
	return a.Taxa, d, nil
}
