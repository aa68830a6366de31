package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"os"

	"treemine/internal/core"
	"treemine/internal/newick"
	"treemine/internal/store"
	"treemine/internal/tree"
	"treemine/internal/treebase"
	"treemine/internal/treegen"
)

// workload is one corpus shape plus the ingest path it takes. Every
// size is given at scale 1; scaled shrinks the counts for tests.
type workload struct {
	name  string
	trees int
	opts  core.ForestOptions
	// spillEntries > 0 selects the out-of-core worker path: mine under
	// a resident budget of this many support entries (spilling sorted
	// segments past it), finish the spilled shard, then fold it into a
	// fresh master the way -merge does. 0 selects the checkpoint path.
	spillEntries int
	// deepProbes restricts support probes to distances past
	// core.MaxPackedDist, the range the serve cache cannot key.
	deepProbes bool
	// gen returns a generator of the workload's trees for a seed.
	gen func(seed int64) (func() (*tree.Tree, error), error)
}

// fig6PoolSize is the size of the Figure 6 tree pool; corpora cycle it.
const fig6PoolSize = 2000

var workloads = []workload{
	{
		name:  "fig6",
		trees: 5000,
		opts:  core.DefaultForestOptions(),
		gen: func(seed int64) (func() (*tree.Tree, error), error) {
			rng := rand.New(rand.NewSource(seed))
			p := treegen.DefaultParams()
			pool := make([]*tree.Tree, fig6PoolSize)
			for i := range pool {
				pool[i] = treegen.Fanout(rng, p)
			}
			i := 0
			return func() (*tree.Tree, error) {
				t := pool[i%len(pool)]
				i++
				return t, nil
			}, nil
		},
	},
	{
		name:         "treebase",
		trees:        6000,
		opts:         core.DefaultForestOptions(),
		spillEntries: 100000,
		gen: func(seed int64) (func() (*tree.Tree, error), error) {
			cfg := treebase.DefaultConfig()
			cfg.NumTrees = 1 << 30 // the corpus length is set by the caller
			st, err := treebase.NewStream(seed, cfg)
			if err != nil {
				return nil, err
			}
			return st.Next, nil
		},
	},
	{
		name:       "deep",
		trees:      1500,
		opts:       core.ForestOptions{Options: core.Options{MaxDist: core.D(20), MinOccur: 1}, MinSup: 2},
		deepProbes: true,
		gen: func(seed int64) (func() (*tree.Tree, error), error) {
			rng := rand.New(rand.NewSource(seed))
			alphabet := treegen.Alphabet(deepAlphabet)
			return func() (*tree.Tree, error) {
				labels := make([]string, deepNodes)
				for i, j := range rng.Perm(deepAlphabet)[:deepNodes] {
					labels[i] = alphabet[j]
				}
				return treegen.RandomWalk(rng, labels, deepSPRSteps), nil
			}, nil
		},
	},
}

// The deep workload's shape: caterpillars over deepNodes distinct labels
// drawn from deepAlphabet, scrambled by deepSPRSteps SPR moves — few
// enough that long chains survive and cousin distances run past
// core.MaxPackedDist.
const (
	deepNodes    = 150
	deepAlphabet = 400
	deepSPRSteps = 30
)

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// scaled returns w with its corpus and spill budget multiplied by f,
// keeping at least a handful of trees and one resident entry.
func (w workload) scaled(f float64) workload {
	if f == 1 {
		return w
	}
	w.trees = max(int(float64(w.trees)*f), 8)
	if w.spillEntries > 0 {
		w.spillEntries = max(int(float64(w.spillEntries)*f), 1)
	}
	return w
}

// corpus is the generated input of one run: the Newick file the ingest
// phase reads and the reference index mined from the same trees in
// memory, with no Newick, spill or fold in between.
type corpus struct {
	path   string
	digest string // sha256 of the Newick file
	ref    string // reference v4 index
}

// makeCorpus writes w's corpus for seed into dir and builds its
// reference index. Neither step is timed.
func makeCorpus(w workload, seed int64, dir string) (*corpus, error) {
	next, err := w.gen(seed)
	if err != nil {
		return nil, err
	}
	c := &corpus{path: dir + "/corpus.nwk", ref: dir + "/reference.v4"}
	f, err := os.Create(c.path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	h := sha256.New()
	bw := bufio.NewWriter(io.MultiWriter(f, h))
	ref := core.NewSupportShard(w.opts)
	for i := 0; i < w.trees; i++ {
		t, err := next()
		if err != nil {
			return nil, fmt.Errorf("generate tree %d: %w", i, err)
		}
		if _, err := bw.WriteString(newick.Write(t) + "\n"); err != nil {
			return nil, err
		}
		ref.AddTree(t)
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	c.digest = hex.EncodeToString(h.Sum(nil))
	if err := store.CompactShardV4(c.ref, ref); err != nil {
		return nil, fmt.Errorf("reference index: %w", err)
	}
	return c, nil
}
