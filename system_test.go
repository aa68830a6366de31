package treemine_test

// System test: the full tool-chain path a user would take — simulate a
// TreeBASE-style corpus, export it to NEXUS on disk, load it back
// through the format-sniffing reader, build the persistent index, and
// cross-check index queries, per-study consensus, kernel selection, and
// supertree assembly against direct computation.

import (
	"path/filepath"
	"testing"

	"treemine"
	"treemine/internal/core"
	"treemine/internal/phyloio"
	"treemine/internal/store"
	"treemine/internal/tree"
	"treemine/internal/treebase"
)

func TestSystemCorpusToIndexToAnalysis(t *testing.T) {
	cfg := treebase.DefaultConfig()
	cfg.NumTrees = 24
	corpus, err := treebase.NewCorpus(11, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// 1. Export to NEXUS files and reload through the generic reader.
	dir := t.TempDir()
	files, err := corpus.ExportNexus(dir)
	if err != nil {
		t.Fatal(err)
	}
	var loaded []*tree.Tree
	for _, f := range files {
		ts, err := phyloio.ReadTrees([]string{f}, nil)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		loaded = append(loaded, ts...)
	}
	direct := corpus.AllTrees()
	if len(loaded) != len(direct) {
		t.Fatalf("loaded %d trees, corpus has %d", len(loaded), len(direct))
	}
	for i := range loaded {
		if !tree.Isomorphic(loaded[i], direct[i]) {
			t.Fatalf("tree %d differs after NEXUS round trip", i)
		}
	}

	// 2. Build the pattern index, write it as the v4 file every query
	// reads, and map it; its frequent set must match direct multi-tree
	// mining over the loaded trees.
	opts := core.DefaultOptions()
	ix, err := store.Build(loaded, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	idxPath := filepath.Join(dir, "corpus.v4")
	if err := store.CompactIndexV4(idxPath, ix); err != nil {
		t.Fatal(err)
	}
	reloaded, err := store.OpenMapped(idxPath)
	if err != nil {
		t.Fatal(err)
	}
	defer reloaded.Close()
	fromIndex := reloaded.Frequent(2)
	fromMining := treemine.MineForest(loaded, treemine.DefaultForestOptions())
	if len(fromIndex) != len(fromMining) {
		t.Fatalf("index: %d frequent pairs, direct: %d", len(fromIndex), len(fromMining))
	}
	for i := range fromIndex {
		if fromIndex[i] != fromMining[i] {
			t.Fatalf("frequent pair %d differs: %+v vs %+v", i, fromIndex[i], fromMining[i])
		}
	}

	// 3. Per-study analysis: restrict each study's trees to their shared
	// taxa and build a majority consensus; score it against the study.
	study := corpus.Studies[0]
	shared := study.Trees[0].LeafLabels()
	for _, st := range study.Trees[1:] {
		keep := map[string]bool{}
		for _, l := range st.LeafLabels() {
			keep[l] = true
		}
		var next []string
		for _, l := range shared {
			if keep[l] {
				next = append(next, l)
			}
		}
		shared = next
	}
	if len(shared) >= 3 {
		var restricted []*treemine.Tree
		for _, st := range study.Trees {
			r := treemine.Restrict(st, shared)
			if r == nil {
				t.Fatal("restriction lost all taxa")
			}
			restricted = append(restricted, r)
		}
		cons, err := treemine.Consensus(treemine.Majority, restricted)
		if err != nil {
			t.Fatal(err)
		}
		if score := treemine.AvgSim(cons, restricted, opts); score < 0 {
			t.Fatalf("AvgSim = %v", score)
		}
	}

	// 4. Kernel selection across the first two studies, then a supertree
	// from the kernels.
	groups := [][]*treemine.Tree{corpus.Studies[0].Trees, corpus.Studies[1].Trees}
	res, err := treemine.KernelTrees(groups, treemine.DefaultKernelConfig())
	if err != nil {
		t.Fatal(err)
	}
	kernels := []*treemine.Tree{
		groups[0][res.Choice[0]],
		groups[1][res.Choice[1]],
	}
	st, err := treemine.Supertree(kernels)
	if err != nil {
		t.Fatal(err)
	}
	union := map[string]bool{}
	for _, k := range kernels {
		for _, l := range k.LeafLabels() {
			union[l] = true
		}
	}
	if got := len(st.LeafLabels()); got != len(union) {
		t.Fatalf("supertree covers %d taxa, union has %d", got, len(union))
	}
}
