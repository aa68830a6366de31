package core

import (
	"fmt"
	"sync"

	"treemine/internal/tree"
)

// Options configure single-tree mining. The zero value is not useful;
// start from DefaultOptions (the paper's Table 2 defaults).
type Options struct {
	// MaxDist is the largest cousin distance reported (the paper's
	// maxdist, default 1.5).
	MaxDist Dist
	// MinOccur is the smallest within-tree occurrence count reported
	// (the paper's minoccur, default 1).
	MinOccur int
}

// DefaultOptions returns the paper's Table 2 defaults: maxdist = 1.5,
// minoccur = 1.
func DefaultOptions() Options {
	return Options{MaxDist: 3, MinOccur: 1}
}

// Mine is Single_Tree_Mining (Figure 3 of the paper): it returns every
// cousin pair item of t whose distance is at most opts.MaxDist and whose
// occurrence count is at least opts.MinOccur.
//
// The implementation enumerates, for every node a, the labeled
// descendants of a grouped by (child subtree of a, depth below a) and
// pairs groups from different child subtrees at the depths prescribed by
// Dist.Levels. Grouping by distinct child subtrees makes a the exact LCA
// of every generated pair, so no pair is ever double-counted (the paper's
// Step 9 check holds by construction). The running time is O(n²) in the
// worst case, dominated — exactly as the paper observes in its Figure 4
// discussion — by the number of qualified cousin pairs generated.
//
// Internally the pass runs on interned integer labels and a pooled
// arena, so repeat calls allocate little beyond the returned ItemSet;
// labels reappear as strings only in the result.
func Mine(t *tree.Tree, opts Options) ItemSet { return mine(t, opts, false) }

// MineUnrooted is Mine under the unrooted level-pair rule of the
// paper's §6 (DESIGN.md §59): t is a free tree oriented from one of its
// nodes, and every pair of labeled nodes n ≥ 2 edges apart is an item
// at distance n/2 − 1 (Eq. 7), adjacent nodes excluded — including a
// node and its descendants, which have no rooted cousin distance.
func MineUnrooted(t *tree.Tree, opts Options) ItemSet { return mine(t, opts, true) }

func mine(t *tree.Tree, opts Options, unrooted bool) ItemSet {
	m := minerPool.Get().(*miner)
	m.unrooted = unrooted
	m.reset(t, opts, nil)
	defer m.release()
	items := make(ItemSet)
	if m.maxJ == 0 {
		return items
	}
	if m.packed() {
		m.acc.init(m.syms.Len(), m.nd)
		m.accumulate(&m.acc)
		syms, minOccur := m.syms, opts.MinOccur
		// Drained cells arrive roughly row-major in (a, b), so memoizing
		// the two label lookups turns most cells' string work into a
		// symbol-ID compare.
		lastA, lastB := ^uint32(0), ^uint32(0)
		var la, lb string
		m.acc.drain(func(a, b uint32, dc int, n int32) {
			if int(n) < minOccur {
				return
			}
			if a != lastA {
				la, lastA = syms.Label(a), a
			}
			if b != lastB {
				lb, lastB = syms.Label(b), b
			}
			items[NewKey(la, lb, Dist(dc))] = int(n)
		})
		return items
	}
	// Distances beyond MaxPackedDist: enumerate pairs on string keys,
	// then prune below-minoccur items in place — no second map.
	m.forEachPair(func(u, v tree.NodeID, d Dist) {
		items[NewKey(t.MustLabel(u), t.MustLabel(v), d)]++
	})
	if opts.MinOccur > 1 {
		for k, n := range items {
			if n < opts.MinOccur {
				delete(items, k)
			}
		}
	}
	return items
}

// Pair is one concrete cousin pair occurrence: two node IDs and their
// cousin distance.
type Pair struct {
	U, V tree.NodeID
	D    Dist
}

// MinePairs returns every concrete cousin node pair of t with distance at
// most opts.MaxDist, before label aggregation. Each unordered node pair
// appears exactly once. MinOccur does not apply (it is a property of
// aggregated items).
func MinePairs(t *tree.Tree, opts Options) []Pair {
	m := getMiner(t, opts, nil)
	defer m.release()
	var out []Pair
	m.forEachPair(func(u, v tree.NodeID, d Dist) {
		out = append(out, Pair{U: u, V: v, D: d})
	})
	return out
}

// mineIKeys mines t on packed keys over syms, which must already
// contain every label of t (use Symbols.InternTree): it hands each item
// that meets opts.MinOccur to f, in no particular order. opts.MaxDist
// must be at most MaxPackedDist.
func mineIKeys(t *tree.Tree, opts Options, syms *Symbols, f func(k IKey, n int32)) {
	if !packable(opts.MaxDist) {
		panic(fmt.Sprintf("core: packed mining at maxdist %s beyond MaxPackedDist", opts.MaxDist))
	}
	m := getMiner(t, opts, syms)
	defer m.release()
	if m.maxJ == 0 {
		return
	}
	m.acc.init(syms.Len(), m.nd)
	m.accumulate(&m.acc)
	minOccur := opts.MinOccur
	m.acc.drain(func(a, b uint32, dc int, n int32) {
		if int(n) >= minOccur {
			f(NewIKey(a, b, Dist(dc)), n)
		}
	})
}

// miner holds the per-tree state for one mining pass: interned node
// labels plus, for every non-root node c and depth k ≤ maxJ, the bucket
// of labeled descendants of c that sit k edges below c's parent. Buckets
// live in one flat slice indexed through prefix sums, so a pass over a
// same-shaped tree reuses every buffer. Miners are pooled; use getMiner
// and release.
type miner struct {
	t    *tree.Tree
	opts Options
	// syms is the symbol table in use: own (reset per tree) unless a
	// shared forest table was supplied.
	syms   *Symbols
	own    *Symbols
	shared bool
	maxJ   int // deepest bucket level, clamped to the tree height
	nd     int // number of valid distance slots (MaxDist+1, min 0)

	// unrooted selects the level-pair rule reset builds pairs for: §6's
	// free-tree rule when set, else the rooted Eq. 1–3. release clears
	// it, so a pooled miner starts under the rooted rule.
	unrooted bool
	pairs    []levelPair // the pass's level pairs, nondecreasing in j

	// SoA copies of the tree's per-node structure, filled in one pass so
	// the bucket-building walks touch flat arrays instead of chasing
	// method calls into the tree.
	par         []int32       // parent ID per node (root: -1)
	dep         []int32       // depth per node
	mld         []int32       // deepest labeled descendant depth below each node (-1: none)
	nodeSym     []uint32      // symbol ID per labeled node
	bucketStart []int32       // prefix offsets into flat, len size*maxJ+1
	bucketFill  []int32       // per-bucket counting/fill cursors
	flat        []tree.NodeID // bucket storage

	acc  accum     // item accumulator (also used per tree by forest mining)
	wild accum     // distance-wildcard scratch for IgnoreDist support
	lv   levelVecs // symbol-vector scratch of the blocked path (§48)
}

var minerPool = sync.Pool{New: func() any { return new(miner) }}

// getMiner fetches a pooled miner and builds its buckets for t. A nil
// syms gives the miner its own per-tree symbol table; a non-nil one is
// treated as shared and read-only (every label of t must already be
// interned in it).
func getMiner(t *tree.Tree, opts Options, syms *Symbols) *miner {
	m := minerPool.Get().(*miner)
	m.reset(t, opts, syms)
	return m
}

// release returns the miner to the pool, dropping tree references but
// keeping buffers for reuse. The level-vector scratch is sanitized so a
// pass abandoned mid-LCA (contained panic) cannot poison the pool.
func (m *miner) release() {
	m.acc.discard()
	m.wild.discard()
	m.lv.sanitize()
	m.t = nil
	m.syms = nil
	m.unrooted = false
	minerPool.Put(m)
}

// packed reports whether this pass can accumulate into packed integer
// keys.
func (m *miner) packed() bool { return packable(m.opts.MaxDist) }

// reset points the miner at t and rebuilds the level pairs and the
// buckets in O(n · maxJ): every labeled node v is recorded under each of
// its ≤ maxJ nearest ancestors.
func (m *miner) reset(t *tree.Tree, opts Options, syms *Symbols) {
	m.t, m.opts = t, opts
	m.maxJ, m.nd = 0, 0
	if opts.MaxDist < 0 || t.Size() == 0 {
		return
	}
	m.nd = int(opts.MaxDist) + 1

	if syms != nil {
		m.syms, m.shared = syms, true
	} else {
		if m.own == nil {
			m.own = NewSymbols()
		}
		m.own.reset()
		m.syms, m.shared = m.own, false
	}

	n := t.Size()
	m.par = grow32(m.par, n)
	m.dep = grow32(m.dep, n)
	m.mld = grow32(m.mld, n)
	m.nodeSym = growU32(m.nodeSym, n)

	// SoA pass: copy parent and depth per node into flat arrays and
	// intern symbols alongside, so the bucket walks below run on local
	// int32 slices with no tree method calls. The tree height (for the
	// maxJ clamp) falls out of the same pass. The depth bound also
	// replaces the parent != None check in the walks: the ancestor k
	// edges above v exists iff dep[v] ≥ k.
	par, dep, mld := m.par, m.dep, m.mld
	h := 0
	for v := tree.NodeID(0); v < tree.NodeID(n); v++ {
		par[v] = int32(t.Parent(v))
		d := int32(t.Depth(v))
		dep[v] = d
		if int(d) > h {
			h = int(d)
		}
		if !t.Labeled(v) {
			mld[v] = -1
			continue
		}
		mld[v] = 0
		label := t.MustLabel(v)
		if m.shared {
			id, ok := m.syms.Lookup(label)
			if !ok {
				panic(fmt.Sprintf("core: label %q missing from shared symbol table", label))
			}
			m.nodeSym[v] = id
		} else {
			m.nodeSym[v] = m.syms.Intern(label)
		}
	}

	maxJ := int(opts.MaxDist) + 2 // a vertical pair spans dc + 2 levels
	if !m.unrooted {
		_, maxJ = opts.MaxDist.Levels()
	}
	if maxJ > h {
		maxJ = h // no bucket can be deeper than the tree
	}
	m.maxJ = maxJ
	m.levelPairs()
	if maxJ == 0 {
		return
	}

	// Bottom-up pass for the deepest-labeled-descendant depths, used to
	// skip empty deep levels per LCA. Valid in one reverse scan because
	// the Builder assigns every child a higher ID than its parent.
	for v := n - 1; v > 0; v-- {
		if c := mld[v] + 1; c > 0 && c > mld[par[v]] {
			mld[par[v]] = c
		}
	}

	nb := n * maxJ
	m.bucketStart = grow32(m.bucketStart, nb+1)
	m.bucketFill = grow32(m.bucketFill, nb)
	counts := m.bucketFill
	for i := range counts {
		counts[i] = 0
	}

	// Counting pass: how many nodes land in each (path-child, depth)
	// bucket.
	total := int32(0)
	for v := 0; v < n; v++ {
		if !t.Labeled(tree.NodeID(v)) {
			continue
		}
		steps := maxJ
		if d := int(dep[v]); d < steps {
			steps = d
		}
		child := v
		for k := 1; k <= steps; k++ {
			counts[child*maxJ+k-1]++
			child = int(par[child])
		}
		total += int32(steps)
	}

	// Prefix sums, then the fill pass routes every node into its buckets.
	m.bucketStart[0] = 0
	for i := 0; i < nb; i++ {
		m.bucketStart[i+1] = m.bucketStart[i] + counts[i]
		m.bucketFill[i] = m.bucketStart[i]
	}
	m.flat = growNodeID(m.flat, int(total))
	fill := m.bucketFill
	for v := 0; v < n; v++ {
		if !t.Labeled(tree.NodeID(v)) {
			continue
		}
		steps := maxJ
		if d := int(dep[v]); d < steps {
			steps = d
		}
		child := v
		for k := 1; k <= steps; k++ {
			b := child*maxJ + k - 1
			m.flat[fill[b]] = tree.NodeID(v)
			fill[b]++
			child = int(par[child])
		}
	}
}

// bucket returns the labeled descendants of child c sitting depth edges
// below c's parent (depth is 1-based and at most maxJ).
func (m *miner) bucket(c tree.NodeID, depth int) []tree.NodeID {
	b := int(c)*m.maxJ + depth - 1
	return m.flat[m.bucketStart[b]:m.bucketStart[b+1]]
}

// levelPair is one level combination a pass pairs below every LCA:
// nodes i and j edges down, i ≤ j, counted at distance slot dc. i == 0
// is a vertical pair: the labeled LCA itself with the labeled nodes j
// edges below it.
type levelPair struct{ i, j, dc int }

// levelPairs fills m.pairs for the pass's rule in nondecreasing j, so
// the per-LCA loops stop at the first pair deeper than the LCA's
// subtree. The rooted rule gives Dist.Levels' one pair per distance.
// The unrooted rule gives, for path length p = dc + 2, every split
// i + j = p with 1 ≤ i ≤ j, and the vertical pair (0, p).
func (m *miner) levelPairs() {
	m.pairs = m.pairs[:0]
	if !m.unrooted {
		for d := Dist(0); d <= m.opts.MaxDist; d++ {
			i, j := d.Levels()
			if j > m.maxJ {
				break // j is nondecreasing in d
			}
			m.pairs = append(m.pairs, levelPair{i, j, int(d)})
		}
		return
	}
	for j := 1; j <= m.maxJ; j++ {
		for i := max(0, 2-j); i <= j && i+j-2 <= int(m.opts.MaxDist); i++ {
			m.pairs = append(m.pairs, levelPair{i, j, i + j - 2})
		}
	}
}

// lcaKids returns a's children when a can be the LCA of a pair under
// the pass's rule — two children or more, or under the unrooted rule a
// labeled node with a child, for its vertical pairs — and nil otherwise.
func (m *miner) lcaKids(a tree.NodeID) []tree.NodeID {
	kids := m.t.Children(a)
	if len(kids) > 1 || len(kids) == 1 && m.unrooted && m.t.Labeled(a) {
		return kids
	}
	return nil
}

// forEachPair invokes visit once per qualified cousin node pair.
func (m *miner) forEachPair(visit func(u, v tree.NodeID, d Dist)) {
	if m.maxJ == 0 {
		return
	}
	t := m.t
	for a := tree.NodeID(0); a < tree.NodeID(t.Size()); a++ {
		kids := m.lcaKids(a)
		if kids == nil {
			continue
		}
		for _, p := range m.pairs {
			i, j, d := p.i, p.j, Dist(p.dc)
			if i == 0 {
				if t.Labeled(a) {
					for _, c := range kids {
						for _, v := range m.bucket(c, j) {
							visit(a, v, d)
						}
					}
				}
				continue
			}
			// For i == j each unordered child pair is visited once; for
			// i != j the depth roles are distinct so all ordered child
			// pairs are visited.
			for x1, c1 := range kids {
				us := m.bucket(c1, i)
				if len(us) == 0 {
					continue
				}
				start := 0
				if i == j {
					start = x1 + 1
				}
				for x2 := start; x2 < len(kids); x2++ {
					if x2 == x1 {
						continue
					}
					for _, u := range us {
						for _, v := range m.bucket(kids[x2], j) {
							visit(u, v, d)
						}
					}
				}
			}
		}
	}
}

// accumulate routes one interned mining pass into ac. When the
// accumulator is dense it takes the symbol-vector blocked path (§48,
// levelvec.go); in map mode — alphabets too large for a dense table,
// where sizing per-level count vectors to the alphabet would also be
// wasteful — it falls back to the seed pair enumeration.
func (m *miner) accumulate(ac *accum) {
	if ac.dense != nil {
		m.accumulateBlocked(ac)
		return
	}
	m.accumulatePairs(ac)
}

// accumulatePairs is forEachPair specialized to the interned hot path:
// every qualified pair becomes one accumulator increment on symbol IDs,
// with no callback and no string in sight. It is the seed enumeration,
// kept as the map-mode fallback and the ablation baseline; the dense
// production path is accumulateBlocked.
func (m *miner) accumulatePairs(ac *accum) {
	if m.maxJ == 0 {
		return
	}
	t, nodeSym := m.t, m.nodeSym
	for a := tree.NodeID(0); a < tree.NodeID(t.Size()); a++ {
		kids := m.lcaKids(a)
		if kids == nil {
			continue
		}
		for _, p := range m.pairs {
			i, j, dc := p.i, p.j, p.dc
			if i == 0 {
				if t.Labeled(a) {
					sa := nodeSym[a]
					for _, c := range kids {
						for _, v := range m.bucket(c, j) {
							ac.add(sa, nodeSym[v], dc, 1)
						}
					}
				}
				continue
			}
			for x1, c1 := range kids {
				us := m.bucket(c1, i)
				if len(us) == 0 {
					continue
				}
				start := 0
				if i == j {
					start = x1 + 1
				}
				for x2 := start; x2 < len(kids); x2++ {
					if x2 == x1 {
						continue
					}
					vs := m.bucket(kids[x2], j)
					if len(vs) == 0 {
						continue
					}
					for _, u := range us {
						su := nodeSym[u]
						for _, v := range vs {
							ac.add(su, nodeSym[v], dc, 1)
						}
					}
				}
			}
		}
	}
}

// MineCounts computes the same ItemSet as Mine. Historically it was a
// separate map-based histogram strategy (totals minus a same-child
// correction); that counting identity is now the production path itself
// — the symbol-vector enumeration of levelvec.go (DESIGN.md §48) runs
// it on dense count vectors for every dense-mode mining pass. MineCounts
// is kept as an alias for API compatibility and for the ablation
// harnesses that call the two entry points side by side.
func MineCounts(t *tree.Tree, opts Options) ItemSet {
	return Mine(t, opts)
}

// growU32 returns s resized to n, reusing capacity.
func growU32(s []uint32, n int) []uint32 {
	if cap(s) < n {
		return make([]uint32, n)
	}
	return s[:n]
}

func grow32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growNodeID(s []tree.NodeID, n int) []tree.NodeID {
	if cap(s) < n {
		return make([]tree.NodeID, n)
	}
	return s[:n]
}
