// Package freetree extends cousin-pair mining to free trees — unrooted
// unordered labeled trees, i.e. undirected acyclic graphs (UAGs) — as
// described in §6 of the paper. Reconstruction methods such as maximum
// parsimony and maximum likelihood naturally produce unrooted trees, so
// the extension matters in practice.
//
// In a UAG the cousin distance of two labeled nodes u, v is
//
//	cdist(u, v) = n/2 − 1
//
// where n is the number of edges on the unique u–v path (Eq. 7). Paths
// of length 1 (adjacent nodes — the unrooted analogue of parent–child
// pairs) are excluded, exactly as the rooted algorithm excludes
// ancestor–descendant pairs.
package freetree

import (
	"errors"
	"fmt"

	"treemine/internal/core"
	"treemine/internal/tree"
)

// Errors reported by graph construction.
var (
	// ErrCycle is returned by Validate when the graph contains a cycle.
	ErrCycle = errors.New("freetree: graph contains a cycle")
	// ErrDisconnected is returned by Validate when the graph is not
	// connected.
	ErrDisconnected = errors.New("freetree: graph is not connected")
)

// Graph is an undirected acyclic graph with optionally labeled nodes.
// Build it with AddNode/AddEdge, then Validate before mining.
type Graph struct {
	adj     [][]int
	labels  []string
	labeled []bool
	edges   int
}

// NewGraph returns an empty graph.
func NewGraph() *Graph { return &Graph{} }

// AddNode adds a labeled node and returns its index.
func (g *Graph) AddNode(label string) int { return g.add(label, true) }

// AddNodeUnlabeled adds an unlabeled node and returns its index.
func (g *Graph) AddNodeUnlabeled() int { return g.add("", false) }

func (g *Graph) add(label string, labeled bool) int {
	g.adj = append(g.adj, nil)
	g.labels = append(g.labels, label)
	g.labeled = append(g.labeled, labeled)
	return len(g.adj) - 1
}

// AddEdge connects nodes u and v. It returns an error for out-of-range
// endpoints, self-loops, and duplicate edges.
func (g *Graph) AddEdge(u, v int) error {
	if u < 0 || u >= len(g.adj) || v < 0 || v >= len(g.adj) {
		return fmt.Errorf("freetree: edge (%d,%d) out of range [0,%d)", u, v, len(g.adj))
	}
	if u == v {
		return fmt.Errorf("freetree: self-loop on node %d", u)
	}
	for _, w := range g.adj[u] {
		if w == v {
			return fmt.Errorf("freetree: duplicate edge (%d,%d)", u, v)
		}
	}
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
	g.edges++
	return nil
}

// Size returns the number of nodes.
func (g *Graph) Size() int { return len(g.adj) }

// Label returns the label of node n and whether n is labeled.
func (g *Graph) Label(n int) (string, bool) {
	if !g.labeled[n] {
		return "", false
	}
	return g.labels[n], true
}

// Neighbors returns the adjacency list of n; the slice is owned by the
// graph.
func (g *Graph) Neighbors(n int) []int { return g.adj[n] }

// Validate checks that the graph is a free tree: connected and acyclic.
// The empty graph is valid.
func (g *Graph) Validate() error {
	n := len(g.adj)
	if n == 0 {
		return nil
	}
	if g.edges != n-1 {
		if g.edges > n-1 {
			return fmt.Errorf("%w (%d nodes, %d edges)", ErrCycle, n, g.edges)
		}
		return fmt.Errorf("%w (%d nodes, %d edges)", ErrDisconnected, n, g.edges)
	}
	// n−1 edges: connected ⟺ acyclic; check connectivity by BFS.
	if count := g.bfs(func(u, v int) {}); count != n {
		return fmt.Errorf("%w (reached %d of %d nodes)", ErrDisconnected, count, n)
	}
	return nil
}

// bfs walks g breadth-first from node 0, calling reach(u, v) when node
// v is first reached from u, and returns the number of nodes reached.
func (g *Graph) bfs(reach func(u, v int)) int {
	seen := make([]bool, len(g.adj))
	seen[0] = true
	queue := []int{0}
	for k := 0; k < len(queue); k++ {
		u := queue[k]
		for _, v := range g.adj[u] {
			if !seen[v] {
				seen[v] = true
				reach(u, v)
				queue = append(queue, v)
			}
		}
	}
	return len(queue)
}

// Mine finds every cousin pair item of the free tree g with distance at
// most opts.MaxDist and occurrence at least opts.MinOccur, implementing
// the rooted conversion of §6: g is oriented from node 0 and mined by
// core.MineUnrooted, which pairs the labeled nodes below every node at
// the level combinations (i, j) with i + j = 2(d+1), and a labeled node
// with its labeled descendants 2(d+1) levels down. Rooting at a real
// node rather than subdividing an edge leaves no "+1 edge at the root"
// case (Eq. 10); DESIGN.md §59 shows the results are equal. The caller
// should Validate first; Mine returns an error otherwise.
func Mine(g *Graph, opts core.Options) (core.ItemSet, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if g.Size() == 0 {
		return make(core.ItemSet), nil
	}
	return core.MineUnrooted(g.orient(), opts), nil
}

// orient returns g as a rooted tree: node 0 is the root and every other
// node hangs below the node BFS first reached it from, so a child's tree
// ID is always above its parent's. g must be valid and non-empty.
func (g *Graph) orient() *tree.Tree {
	b := tree.NewBuilder(g.Size())
	id := make([]tree.NodeID, g.Size())
	id[0] = b.RootUnlabeled()
	g.bfs(func(u, v int) { id[v] = b.ChildUnlabeled(id[u]) })
	for v, ok := range g.labeled {
		if ok {
			b.SetLabel(id[v], g.labels[v])
		}
	}
	return b.MustBuild()
}

// MineForest finds frequent cousin pairs across multiple free trees: each
// graph is oriented and folded into one core.SupportShard under the
// unrooted rule, so the result has core.MineForest's shape and order.
// Graphs failing validation abort with an error.
func MineForest(graphs []*Graph, opts core.ForestOptions) ([]core.FrequentPair, error) {
	sh := core.NewSupportShard(opts)
	for gi, g := range graphs {
		if err := g.Validate(); err != nil {
			return nil, fmt.Errorf("freetree: graph %d: %w", gi, err)
		}
		if g.Size() > 0 {
			sh.AddUnrooted(g.orient())
		}
	}
	return sh.Finalize(opts.MinSup), nil
}
