package store

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"treemine/internal/core"
	"treemine/internal/oracle"
	"treemine/internal/tree"
)

// The store is held to internal/oracle: a v4 file must decode, by the
// oracle's own reader, to the oracle's model of the forest it was
// compacted from, and the mapped accessors must read what that decoder
// reads.

// naiveSets mines each tree with the oracle's brute-force miner.
func naiveSets(trees []*tree.Tree, opts core.Options) []oracle.Items {
	return oracle.MineTrees(trees, int(opts.MaxDist), opts.MinOccur)
}

// corePairs converts oracle pairs to core's.
func corePairs(ps []oracle.Pair) []core.FrequentPair {
	var out []core.FrequentPair
	for _, p := range ps {
		out = append(out, core.FrequentPair{Key: core.Key{A: p.Key.A, B: p.Key.B, D: core.Dist(p.Key.D)}, Support: p.Support})
	}
	return out
}

// treeNames returns the names Build gives n unnamed trees.
func treeNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("tree_%d", i+1)
	}
	return names
}

// wantV4 is the file the oracle expects for trees mined under opts:
// compacted from a shard when names is nil, else from an index, whose
// per-tree section names the trees. A packed shard's label table holds
// every label its trees carry, pair or no pair; any other file's only
// the labels of its records.
func wantV4(trees []*tree.Tree, names []string, opts core.ForestOptions) *oracle.File {
	sets := naiveSets(trees, opts.Options)
	f := &oracle.File{
		IgnoreDist: opts.IgnoreDist, Generic: opts.MaxDist > core.MaxPackedDist,
		MaxDist: int(opts.MaxDist), MinOccur: opts.MinOccur, MinSup: opts.MinSup,
		Trees: len(trees), Records: oracle.Records(sets, opts.IgnoreDist),
	}
	labels, rec := map[string]bool{}, map[oracle.Key]int{}
	for i, p := range f.Records {
		labels[p.Key.A], labels[p.Key.B], rec[p.Key] = true, true, i
	}
	for _, p := range oracle.Forest(sets, 1, opts.IgnoreDist) {
		f.Perm = append(f.Perm, rec[p.Key])
	}
	if names == nil && !f.Generic {
		for _, tr := range trees {
			for _, n := range tr.LabeledNodes() {
				labels[tr.MustLabel(n)] = true
			}
		}
	}
	for l := range labels {
		f.Labels = append(f.Labels, l)
	}
	sort.Strings(f.Labels)
	if names != nil {
		f.Tree = make([]oracle.Tree, len(trees))
		for i, tr := range trees {
			f.Items += len(sets[i])
			f.Tree[i] = oracle.Tree{Name: names[i], Nodes: tr.Size()}
			for k, n := range sets[i] {
				f.Tree[i].Items = append(f.Tree[i].Items, oracle.TreeItem{Rec: rec[k], Occur: n})
			}
			sort.Slice(f.Tree[i].Items, func(a, b int) bool { return f.Tree[i].Items[a].Rec < f.Tree[i].Items[b].Rec })
		}
	}
	return f
}

// checkV4 decodes a v4 image with the oracle's decoder and fails unless
// it is want; it returns the decoded file.
func checkV4(t testing.TB, data []byte, want *oracle.File) *oracle.File {
	t.Helper()
	got, err := oracle.DecodeV4(data)
	if err != nil {
		t.Fatalf("v4 image does not decode: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("v4 image decodes to\n%+v\nthe oracle expects\n%+v", got, want)
	}
	return got
}

// mappedMatches fails unless every accessor of m reads what the
// oracle's decoder read from the same bytes: the header, each label
// (and its lookup), each record (by PairAt, by KeyAt on a packed file,
// and by point lookup with the labels swapped), the permutation, and
// each tree's name, node count, name lookup and items, every item
// reachable through Records and TreeOccur.
func mappedMatches(t testing.TB, m *Mapped, f *oracle.File) {
	t.Helper()
	o := m.Options()
	if int(o.MaxDist) != f.MaxDist || o.MinOccur != f.MinOccur || o.MinSup != f.MinSup || o.IgnoreDist != f.IgnoreDist ||
		m.Generic() != f.Generic || m.Trees() != f.Trees || m.Items() != int64(f.Items) || m.HasTrees() != (f.Tree != nil) ||
		m.NumSymbols() != len(f.Labels) || m.Len() != len(f.Records) {
		t.Fatalf("mapped header %+v (generic %v, %d trees, %d items, per-tree %v, %d labels, %d records) != decoded %+v",
			o, m.Generic(), m.Trees(), m.Items(), m.HasTrees(), m.NumSymbols(), m.Len(), *f)
	}
	for i, l := range f.Labels {
		if id, ok := m.LookupSymbol(l); m.Symbol(i) != l || !ok || id != uint32(i) {
			t.Fatalf("label %d: Symbol %q, lookup %d %v; decoded %q", i, m.Symbol(i), id, ok, l)
		}
	}
	for i, p := range f.Records {
		k := core.Key{A: p.Key.A, B: p.Key.B, D: core.Dist(p.Key.D)}
		if got := m.PairAt(i); got != (core.FrequentPair{Key: k, Support: p.Support}) || m.PermAt(i) != f.Perm[i] {
			t.Fatalf("record %d: PairAt %v, PermAt %d; decoded %v, %d", i, got, m.PermAt(i), p, f.Perm[i])
		}
		if m.Support(k.B, k.A, k.D) != int64(p.Support) {
			t.Fatalf("record %d (%v) unreachable by lookup", i, p)
		}
		if f.Generic {
			continue
		}
		if a, b := m.KeyAt(i).Syms(); m.Symbol(int(a)) != k.A || m.Symbol(int(b)) != k.B || m.KeyAt(i).Dist() != k.D {
			t.Fatalf("record %d: KeyAt %#x, decoded %v", i, m.KeyAt(i), p)
		}
	}
	for tr, want := range f.Tree {
		if got, ok := m.TreeByName(want.Name); m.TreeName(tr) != want.Name || m.TreeNodes(tr) != want.Nodes || !ok || m.TreeName(got) != want.Name {
			t.Fatalf("tree %d: %q with %d nodes, found by name %v; decoded %q with %d", tr, m.TreeName(tr), m.TreeNodes(tr), ok, want.Name, want.Nodes)
		}
		var items []oracle.TreeItem
		m.TreeRecords(tr, func(rec, occur int) { items = append(items, oracle.TreeItem{Rec: rec, Occur: occur}) })
		if !reflect.DeepEqual(items, want.Items) {
			t.Fatalf("tree %d: TreeRecords %v, decoded %v", tr, items, want.Items)
		}
		for _, it := range want.Items {
			k := f.Records[it.Rec].Key
			if lo, hi := m.Records(k.A, k.B, core.Dist(k.D)); m.TreeOccur(tr, lo, hi) != it.Occur {
				t.Fatalf("tree %d: item %v × %d unreachable", tr, k, it.Occur)
			}
		}
	}
}
