package core

import (
	"fmt"
	"math/rand"
	"testing"

	"treemine/internal/tree"
	"treemine/internal/treegen"
)

// cellKey identifies one accumulated item without IKey's packed-distance
// limit, so the differential below can compare paths at distances beyond
// MaxPackedDist.
type cellKey struct {
	a, b uint32
	dc   int
}

// accumVia mines t through one accumulate strategy into a plain map.
func accumVia(t *tree.Tree, opts Options, syms *Symbols, run func(*miner, *accum)) map[cellKey]int32 {
	return accumRule(t, opts, syms, false, run)
}

// accumRule is accumVia under the rooted or the unrooted level-pair rule.
func accumRule(t *tree.Tree, opts Options, syms *Symbols, unrooted bool, run func(*miner, *accum)) map[cellKey]int32 {
	m := minerPool.Get().(*miner)
	m.unrooted = unrooted
	m.reset(t, opts, syms)
	defer m.release()
	out := map[cellKey]int32{}
	if m.maxJ == 0 {
		return out
	}
	m.acc.init(syms.Len(), m.nd)
	run(m, &m.acc)
	m.acc.drain(func(a, b uint32, dc int, n int32) {
		out[cellKey{a: a, b: b, dc: dc}] += n
	})
	return out
}

// oracleCells aggregates forEachPair (via MinePairs, the exact node-pair
// oracle) into the same map shape as accumVia.
func oracleCells(t *tree.Tree, opts Options, syms *Symbols) map[cellKey]int32 {
	out := map[cellKey]int32{}
	for _, pr := range MinePairs(t, opts) {
		su, ok1 := syms.Lookup(t.MustLabel(pr.U))
		sv, ok2 := syms.Lookup(t.MustLabel(pr.V))
		if !ok1 || !ok2 {
			panic("test: label missing from table")
		}
		if sv < su {
			su, sv = sv, su
		}
		out[cellKey{a: su, b: sv, dc: int(pr.D)}]++
	}
	return out
}

func diffCells(t *testing.T, name string, got, want map[cellKey]int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d items, oracle has %d", name, len(got), len(want))
	}
	for k, n := range want {
		if got[k] != n {
			t.Errorf("%s: item %+v = %d, oracle %d", name, k, got[k], n)
			return
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: extra item %+v", name, k)
			return
		}
	}
}

// TestLevelVecDifferential quick-checks the symbol-vector accumulation
// (the blocked production path) and the pair enumeration bit-for-bit against the forEachPair oracle over random tree shapes, at
// the packable boundary: MaxDist = MaxPackedDist and one past it (where
// packed keys are impossible but the dense accumulator still runs, with
// more distance slots).
func TestLevelVecDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shapes := []treegen.Params{
		{TreeSize: 120, Fanout: 5, AlphabetSize: 120}, // fig6-like: mostly distinct labels
		{TreeSize: 120, Fanout: 5, AlphabetSize: 6},   // label-dense
		{TreeSize: 150, Fanout: 40, AlphabetSize: 10}, // hub: wide sibling sets
		{TreeSize: 80, Fanout: 2, AlphabetSize: 4},    // deep: exercises high levels
		{TreeSize: 1, Fanout: 1, AlphabetSize: 1},     // degenerate
	}
	for _, p := range shapes {
		for trial := 0; trial < 3; trial++ {
			tr := treegen.Fanout(rng, p)
			for _, md := range []Dist{MaxPackedDist, MaxPackedDist + 1} {
				opts := Options{MaxDist: md, MinOccur: 1}
				syms := NewSymbols()
				syms.InternTree(tr)
				name := fmt.Sprintf("%+v md=%d trial=%d", p, md, trial)
				want := oracleCells(tr, opts, syms)
				blocked := accumVia(tr, opts, syms, func(m *miner, ac *accum) {
					if ac.dense == nil {
						t.Fatalf("%s: expected dense mode", name)
					}
					m.accumulateBlocked(ac)
				})
				diffCells(t, name+" blocked", blocked, want)
				if md <= MaxPackedDist {
					pairs := accumVia(tr, opts, syms, func(m *miner, ac *accum) {
						m.accumulatePairs(ac)
					})
					diffCells(t, name+" pairs", pairs, want)
				}
			}
		}
	}
}

// TestLevelVecDifferentialMapMode pins the dispatcher at the other
// accumulator mode: a shared symbol table big enough to push the
// accumulator to map mode must give the same items through the public
// MineISet as through a per-tree dense table.
func TestLevelVecDifferentialMapMode(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	tr := treegen.Fanout(rng, treegen.Params{TreeSize: 150, Fanout: 5, AlphabetSize: 100})
	opts := Options{MaxDist: MaxPackedDist, MinOccur: 1}

	big := NewSymbols()
	for i := 0; i < 3000; i++ {
		big.Intern(fmt.Sprintf("pad%d", i))
	}
	big.InternTree(tr)
	mapped := MineISet(tr, opts, big)

	small := NewSymbols()
	small.InternTree(tr)
	densed := MineISet(tr, opts, small)

	if len(mapped) != len(densed) {
		t.Fatalf("map mode: %d items, dense mode %d", len(mapped), len(densed))
	}
	for k, n := range densed {
		a, b := k.Syms()
		la, lb := small.Label(a), small.Label(b)
		ba, ok1 := big.Lookup(la)
		bb, ok2 := big.Lookup(lb)
		if !ok1 || !ok2 {
			t.Fatalf("label %q/%q missing from big table", la, lb)
		}
		if got := mapped[NewIKey(ba, bb, k.Dist())]; got != n {
			t.Fatalf("item (%s,%s,%s): map mode %d, dense mode %d", la, lb, k.Dist(), got, n)
		}
	}
}

// unrootedOracleCells is the test-side brute force for the unrooted
// rule: every labeled node pair of t whose path has n ≥ 2 edges and
// n − 2 ≤ MaxDist, counted at slot n − 2. Paths are measured by walking
// both nodes up to where they meet, with no buckets or level pairs.
func unrootedOracleCells(t *tree.Tree, opts Options, syms *Symbols) map[cellKey]int32 {
	out := map[cellKey]int32{}
	nodes := t.LabeledNodes()
	for x, u := range nodes {
		for _, v := range nodes[x+1:] {
			n := 0
			for a, b := u, v; a != b; n++ {
				if t.Depth(a) >= t.Depth(b) {
					a = t.Parent(a)
				} else {
					b = t.Parent(b)
				}
			}
			if n < 2 || n-2 > int(opts.MaxDist) {
				continue
			}
			su, _ := syms.Lookup(t.MustLabel(u))
			sv, _ := syms.Lookup(t.MustLabel(v))
			if sv < su {
				su, sv = sv, su
			}
			out[cellKey{a: su, b: sv, dc: n - 2}]++
		}
	}
	return out
}

// unrootedPairCells aggregates forEachPair under the unrooted rule into
// the cell map shape.
func unrootedPairCells(t *tree.Tree, opts Options, syms *Symbols) map[cellKey]int32 {
	m := minerPool.Get().(*miner)
	m.unrooted = true
	m.reset(t, opts, syms)
	defer m.release()
	out := map[cellKey]int32{}
	m.forEachPair(func(u, v tree.NodeID, d Dist) {
		su, sv := m.nodeSym[u], m.nodeSym[v]
		if sv < su {
			su, sv = sv, su
		}
		out[cellKey{a: su, b: sv, dc: int(d)}]++
	})
	return out
}

// TestLevelVecDifferentialUnrooted runs TestLevelVecDifferential's
// random shapes under the unrooted level-pair rule: the blocked sweep,
// the pair enumeration and forEachPair against the test-side brute
// force, at the packed boundary, one past it, and at 20 halves.
func TestLevelVecDifferentialUnrooted(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shapes := []treegen.Params{
		{TreeSize: 120, Fanout: 5, AlphabetSize: 120},
		{TreeSize: 120, Fanout: 5, AlphabetSize: 6},
		{TreeSize: 150, Fanout: 40, AlphabetSize: 10},
		{TreeSize: 80, Fanout: 2, AlphabetSize: 4},
		{TreeSize: 40, Fanout: 1, AlphabetSize: 3}, // a path: only children throughout
		{TreeSize: 1, Fanout: 1, AlphabetSize: 1},
	}
	for _, p := range shapes {
		for trial := 0; trial < 3; trial++ {
			tr := treegen.Fanout(rng, p)
			for _, md := range []Dist{MaxPackedDist, MaxPackedDist + 1, 20} {
				opts := Options{MaxDist: md, MinOccur: 1}
				syms := NewSymbols()
				syms.InternTree(tr)
				name := fmt.Sprintf("unrooted %+v md=%d trial=%d", p, md, trial)
				want := unrootedOracleCells(tr, opts, syms)
				blocked := accumRule(tr, opts, syms, true, func(m *miner, ac *accum) {
					if ac.dense == nil {
						t.Fatalf("%s: expected dense mode", name)
					}
					m.accumulateBlocked(ac)
				})
				diffCells(t, name+" blocked", blocked, want)
				diffCells(t, name+" forEachPair", unrootedPairCells(tr, opts, syms), want)
				if md <= MaxPackedDist {
					pairs := accumRule(tr, opts, syms, true, func(m *miner, ac *accum) {
						m.accumulatePairs(ac)
					})
					diffCells(t, name+" pairs", pairs, want)
				}
			}
		}
	}
}

// TestLevelVecDifferentialMapModeUnrooted is the map-mode dispatch under
// the unrooted rule: a shared table big enough for map mode must give
// the test-side brute force's items.
func TestLevelVecDifferentialMapModeUnrooted(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	tr := treegen.Fanout(rng, treegen.Params{TreeSize: 150, Fanout: 5, AlphabetSize: 100})
	opts := Options{MaxDist: MaxPackedDist, MinOccur: 1}
	big := NewSymbols()
	for i := 0; i < 3000; i++ {
		big.Intern(fmt.Sprintf("pad%d", i))
	}
	big.InternTree(tr)
	mapped := accumRule(tr, opts, big, true, func(m *miner, ac *accum) {
		if ac.dense != nil {
			t.Fatal("expected map mode")
		}
		m.accumulate(ac)
	})
	diffCells(t, "unrooted map mode", mapped, unrootedOracleCells(tr, opts, big))
}

// TestMineSteadyStateZeroAlloc is the allocation gate on the reworked
// miner (mirroring TestFitchScoreZeroAlloc): once the pooled miner and
// the support accumulator have grown to the forest's shape, the per-tree
// unit behind MineISet and every forest entry point — reset, blocked
// accumulation, drain into support — allocates nothing.
func TestMineSteadyStateZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	syms := NewSymbols()
	trees := make([]*tree.Tree, 8)
	for i := range trees {
		trees[i] = treegen.Fanout(rng, treegen.DefaultParams())
		syms.InternTree(trees[i])
	}
	opts := DefaultForestOptions()
	var sup accum
	sup.init(syms.Len(), supportSlots(opts))
	m := minerPool.Get().(*miner)
	defer m.release()
	for _, tr := range trees {
		m.reset(tr, opts.Options, syms)
		mineTreeSupport(m, opts, supportSink{acc: &sup})
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		tr := trees[i%len(trees)]
		i++
		m.reset(tr, opts.Options, syms)
		mineTreeSupport(m, opts, supportSink{acc: &sup})
	})
	sup.discard()
	if allocs != 0 {
		t.Fatalf("steady-state mining allocates %v/op, want 0", allocs)
	}
}
