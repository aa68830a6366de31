package core

import (
	"math/rand"
	"runtime"
	"testing"

	"treemine/internal/tree"
	"treemine/internal/treegen"
)

// benchTree builds the paper's Fig6-shaped synthetic tree (Table 3
// defaults: 200 nodes, fanout 5, alphabet 200), a label-dense variant
// with a small alphabet, or a hub variant (high fanout, small alphabet)
// where wide sibling sets with repeated labels let the symbol-vector
// identity collapse many node pairs into one multiply-accumulate.
func benchTree(shape string) *tree.Tree {
	rng := rand.New(rand.NewSource(42))
	p := treegen.DefaultParams()
	switch shape {
	case "dense":
		p.AlphabetSize = 8
	case "hub":
		p.Fanout = 50
		p.AlphabetSize = 16
	}
	return treegen.Fanout(rng, p)
}

// benchAccumulate times one accumulate strategy over a warmed miner
// with a pre-interned shared symbol table (the forest configuration):
// the per-op cost is one full mining pass (bucket build included) with
// results discarded, exactly the per-tree unit of forest mining.
func benchAccumulate(b *testing.B, shape string, run func(m *miner, ac *accum)) {
	t := benchTree(shape)
	syms := NewSymbols()
	syms.InternTree(t)
	opts := DefaultOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := getMiner(t, opts, syms)
		m.acc.init(m.syms.Len(), m.nd)
		run(m, &m.acc)
		m.acc.discard()
		m.release()
	}
}

// seedAccum, seedMiner, and seedAccumulatePairs below are faithful
// replicas of the pre-§48 mining unit — symbol-major accumulator cell
// layout (a·l+b)·nd+dc with a division-decoding drain, pointer-chasing
// bucket build, and per-node-pair enumeration — kept in this test file
// so the `seed` benchmark leg measures the true baseline. The §48
// rework also sped up the shared infrastructure (accumulator layout and
// drain, SoA reset), so running the seed algorithm on the reworked
// support code would understate the PR's win.
type seedAccum struct {
	l, nd   int
	dense   []int32
	touched []int32
}

func (ac *seedAccum) init(l, nd int) {
	ac.l, ac.nd = l, nd
	ac.touched = ac.touched[:0]
	cells := l * l * nd
	if cap(ac.dense) < cells {
		ac.dense = make([]int32, cells)
	}
	ac.dense = ac.dense[:cells]
}

func (ac *seedAccum) add(a, b uint32, dc int, n int32) {
	if b < a {
		a, b = b, a
	}
	cell := (int(a)*ac.l+int(b))*ac.nd + dc
	old := ac.dense[cell]
	if old == 0 {
		ac.touched = append(ac.touched, int32(cell))
	}
	ac.dense[cell] = old + n
}

// drain is a verbatim copy of the original: full decode with hardware
// divisions and an indirect per-cell callback.
func (ac *seedAccum) drain(f func(a, b uint32, dc int, n int32)) {
	for _, cell := range ac.touched {
		n := ac.dense[cell]
		if n == 0 {
			continue
		}
		ac.dense[cell] = 0
		c := int(cell)
		pair := c / ac.nd
		f(uint32(pair/ac.l), uint32(pair%ac.l), c%ac.nd, n)
	}
	ac.touched = ac.touched[:0]
}

// discard mirrors the original discard, which was drain with a no-op
// callback (the decode is not eliminable through the indirect call).
func (ac *seedAccum) discard() {
	ac.drain(func(uint32, uint32, int, int32) {})
}

// seedMiner replicates the pre-§48 miner state: AoS tree access (Parent
// pointer chasing, a separate Height walk) and the counting + fill
// bucket passes, exactly as the seed reset built them.
type seedMiner struct {
	t           *tree.Tree
	opts        Options
	maxJ, nd    int
	nodeSym     []uint32
	bucketStart []int32
	bucketFill  []int32
	flat        []tree.NodeID
}

func (m *seedMiner) reset(t *tree.Tree, opts Options, syms *Symbols) {
	m.t, m.opts = t, opts
	m.maxJ, m.nd = 0, 0
	if opts.MaxDist < 0 || t.Size() == 0 {
		return
	}
	m.nd = int(opts.MaxDist) + 1
	_, maxJ := opts.MaxDist.Levels()
	if h := t.Height(); maxJ > h {
		maxJ = h
	}
	m.maxJ = maxJ
	if maxJ == 0 {
		return
	}
	n := t.Size()
	m.nodeSym = growU32(m.nodeSym, n)
	nb := n * maxJ
	m.bucketStart = grow32(m.bucketStart, nb+1)
	m.bucketFill = grow32(m.bucketFill, nb)
	counts := m.bucketFill
	for i := range counts {
		counts[i] = 0
	}
	total := int32(0)
	for v := tree.NodeID(0); v < tree.NodeID(n); v++ {
		if !t.Labeled(v) {
			continue
		}
		id, ok := syms.Lookup(t.MustLabel(v))
		if !ok {
			panic("benchmark: label missing from shared table")
		}
		m.nodeSym[v] = id
		child, a := v, t.Parent(v)
		for depth := 1; depth <= maxJ && a != tree.None; depth++ {
			counts[int(child)*maxJ+depth-1]++
			total++
			child, a = a, t.Parent(a)
		}
	}
	m.bucketStart[0] = 0
	for i := 0; i < nb; i++ {
		m.bucketStart[i+1] = m.bucketStart[i] + counts[i]
		m.bucketFill[i] = m.bucketStart[i]
	}
	m.flat = growNodeID(m.flat, int(total))
	for v := tree.NodeID(0); v < tree.NodeID(n); v++ {
		if !t.Labeled(v) {
			continue
		}
		child, a := v, t.Parent(v)
		for depth := 1; depth <= maxJ && a != tree.None; depth++ {
			b := int(child)*maxJ + depth - 1
			m.flat[m.bucketFill[b]] = v
			m.bucketFill[b]++
			child, a = a, t.Parent(a)
		}
	}
}

func (m *seedMiner) bucket(c tree.NodeID, depth int) []tree.NodeID {
	b := int(c)*m.maxJ + depth - 1
	return m.flat[m.bucketStart[b]:m.bucketStart[b+1]]
}

// seedAccumulatePairs is the seed per-pair enumeration (the body of the
// original accumulate) against the replica accumulator.
func seedAccumulatePairs(m *seedMiner, ac *seedAccum) {
	if m.maxJ == 0 {
		return
	}
	t, nodeSym := m.t, m.nodeSym
	for a := tree.NodeID(0); a < tree.NodeID(t.Size()); a++ {
		kids := t.Children(a)
		if len(kids) < 2 {
			continue
		}
		for d := Dist(0); d <= m.opts.MaxDist; d++ {
			i, j := d.Levels()
			if j > m.maxJ {
				break
			}
			dc := int(d)
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

// benchSeed times the seed unit — the replica miner and accumulator
// above — in the per-op shape benchAccumulate uses.
func benchSeed(b *testing.B, shape string) {
	t := benchTree(shape)
	syms := NewSymbols()
	syms.InternTree(t)
	opts := DefaultOptions()
	var sm seedMiner
	var sac seedAccum
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sm.reset(t, opts, syms)
		sac.init(syms.Len(), sm.nd)
		seedAccumulatePairs(&sm, &sac)
		sac.discard()
	}
}

// BenchmarkMineCore is the ablation suite of the §48 rework: seed
// pair enumeration (against the replica of the original accumulator)
// vs the word-blocked symbol-vector sweep, at the Fig6
// shape (mostly distinct labels — the hard case for the counting
// identity) and a label-dense shape (its best case).
func BenchmarkMineCore(b *testing.B) {
	for _, shape := range []string{"fig6", "dense", "hub"} {
		b.Run(shape+"/seed", func(b *testing.B) { benchSeed(b, shape) })
		b.Run(shape+"/blocked", func(b *testing.B) {
			benchAccumulate(b, shape, func(m *miner, ac *accum) { m.accumulateBlocked(ac) })
		})
	}
}

// forestPool is BenchmarkMineCoreForest's forest: 200 Fig6-shaped trees
// (Table 3 defaults) over one 200-label alphabet.
func forestPool() []*tree.Tree {
	rng := rand.New(rand.NewSource(7))
	trees := make([]*tree.Tree, 200)
	for i := range trees {
		trees[i] = treegen.Fanout(rng, treegen.DefaultParams())
	}
	return trees
}

// BenchmarkMineCoreForest measures forest-scale throughput of the full
// entry points over a 200-tree Fig6 pool, serial and parallel at 1, 4,
// and GOMAXPROCS workers.
func BenchmarkMineCoreForest(b *testing.B) {
	trees := forestPool()
	opts := DefaultForestOptions()
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			MineForest(trees, opts)
		}
	})
	workers := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, w := range workers {
		b.Run("parallel/"+itoa(w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MineForestParallel(trees, opts, w)
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
