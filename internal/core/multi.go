package core

import (
	"context"
	"runtime"

	"treemine/internal/tree"
)

// ForestOptions configure Multiple_Tree_Mining over a set of trees.
type ForestOptions struct {
	Options
	// MinSup is the minimum number of trees that must contain a cousin
	// pair for it to be frequent (the paper's minsup, default 2).
	MinSup int
	// IgnoreDist makes support counting distance-insensitive: a tree
	// supports a label pair if the pair occurs at any distance ≤ MaxDist
	// (the paper's example where the support of (a,c) grows from 2 to 3
	// once distances are ignored).
	IgnoreDist bool
}

// DefaultForestOptions returns the paper's Table 2 defaults:
// maxdist = 1.5, minoccur = 1, minsup = 2.
func DefaultForestOptions() ForestOptions {
	return ForestOptions{Options: DefaultOptions(), MinSup: 2}
}

// FrequentPair is a cousin pair frequent across a forest: its key (with
// DistWild when IgnoreDist was set) and the number of trees supporting it.
type FrequentPair struct {
	Key     Key
	Support int
}

// MineForest is Multiple_Tree_Mining: it mines each tree with the
// per-tree options and returns the cousin pairs whose support (number of
// trees containing the pair, with the required distance unless
// IgnoreDist) is at least opts.MinSup. The result is sorted by
// decreasing support, then by key, so the strongest patterns come first.
// Its running time is O(Σ|Ti|²), linear in the number of trees for
// bounded tree size — the paper's Figures 6 and 7.
//
// It is a SupportShard fed one tree at a time and then finalized: every
// per-tree pass runs on integer keys in reused buffers and folds into
// the shard's dense pending table, so the cost per tree is pair
// generation plus O(distinct items) — no string hashing and near-zero
// allocation. Labels come back as strings only in the result.
func MineForest(trees []*tree.Tree, opts ForestOptions) []FrequentPair {
	sh := NewSupportShard(opts)
	for _, t := range trees {
		sh.AddTree(t)
	}
	return sh.Finalize(opts.MinSup)
}

// MineForestParallel is MineForest with per-tree mining fanned out over
// a worker pool: the stream round over the in-memory forest, so the
// result is identical to MineForest's (deterministic, sorted), only
// faster on large forests. workers ≤ 0 selects GOMAXPROCS.
func MineForestParallel(trees []*tree.Tree, opts ForestOptions, workers int) []FrequentPair {
	fp, err := MineForestParallelCtx(context.Background(), trees, opts, workers)
	if err != nil {
		// Unreachable without a cancellable context or an armed
		// failpoint: re-raise so the no-error signature keeps its
		// original crash semantics instead of silently dropping work.
		panic(err)
	}
	return fp
}

// MineForestParallelCtx is MineForestParallel under a context: the
// workers — a single one included — check ctx between trees and the
// call returns ctx.Err() promptly, and a panicking worker is contained
// into an error naming the offending tree index.
//
// The forest is resident already, so one stream round covers it: a
// round's memory bound buys nothing here, while every extra round costs
// a worker barrier and a drain of the private accumulators.
func MineForestParallelCtx(ctx context.Context, trees []*tree.Tree, opts ForestOptions, workers int) ([]FrequentPair, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sh, err := MineForestStreamShardCtx(ctx, NewSliceIterator(trees), opts,
		StreamConfig{Workers: workers, BatchSize: (len(trees) + workers - 1) / workers})
	if err != nil {
		return nil, err
	}
	return sh.Finalize(opts.MinSup), nil
}

// supportSlots returns the number of distance slots support accumulation
// needs: one per concrete distance, or a single wildcard slot under
// IgnoreDist.
func supportSlots(opts ForestOptions) int {
	if opts.MaxDist < 0 {
		return 0
	}
	if opts.IgnoreDist {
		return 1
	}
	return int(opts.MaxDist) + 1
}

// supportSink is where forest support lands: the accumulator acc when it
// is set — a shard's dense pending table or a worker's private one —
// else the shard's durable count map, whose keys carry DistWild under
// IgnoreDist where an accumulator uses distance slot 0.
type supportSink struct {
	acc  *accum
	m    map[IKey]int64
	wild bool
}

func (s supportSink) add(a, b uint32, dc int, n int32) {
	if s.acc != nil {
		s.acc.add(a, b, dc, n)
		return
	}
	d := Dist(dc)
	if s.wild {
		d = DistWild
	}
	s.m[NewIKey(a, b, d)] += int64(n)
}

// mineTreeSupport mines the tree the miner is pointed at and folds its
// qualifying items into sup: +1 per item the tree contains with
// occurrence ≥ MinOccur, de-duplicated per label pair under IgnoreDist.
// It is the one per-tree routine of every forest miner.
func mineTreeSupport(m *miner, opts ForestOptions, sup supportSink) {
	if m.maxJ == 0 {
		return
	}
	m.acc.init(m.syms.Len(), m.nd)
	m.accumulate(&m.acc)
	items, minOccur := &m.acc, opts.MinOccur
	if opts.IgnoreDist {
		// Collapse the tree's distances first so each label pair counts
		// one support regardless of how many distances realize it.
		m.wild.init(m.syms.Len(), 1)
		wild := &m.wild
		m.acc.drain(func(a, b uint32, dc int, n int32) {
			if int(n) >= minOccur {
				wild.add(a, b, 0, 1)
			}
		})
		items, minOccur = wild, 1
	}
	if acc := sup.acc; acc != nil {
		// The dense hot path calls acc.add directly: one call per item
		// fewer than going through supportSink.add.
		items.drain(func(a, b uint32, dc int, n int32) {
			if int(n) >= minOccur {
				acc.add(a, b, dc, 1)
			}
		})
		return
	}
	items.drain(func(a, b uint32, dc int, n int32) {
		if int(n) >= minOccur {
			sup.add(a, b, dc, 1)
		}
	})
}

// forestItems is the string-keyed per-tree step for options the packed
// keys cannot represent: t's item set under the rooted or unrooted rule,
// collapsed per label pair under IgnoreDist.
func forestItems(t *tree.Tree, opts ForestOptions, unrooted bool) ItemSet {
	items := mine(t, opts.Options, unrooted)
	if opts.IgnoreDist {
		items = items.IgnoreDist()
	}
	return items
}

// Support returns the support of a specific label pair at distance d
// (or any distance if d is DistWild) across the forest, using the
// per-tree options. For several probes over the same forest, mine once
// and use SupportOf instead.
func Support(trees []*tree.Tree, l1, l2 string, d Dist, opts Options) int {
	sets := make([]ItemSet, len(trees))
	for i, t := range trees {
		sets[i] = Mine(t, opts)
	}
	return SupportOf(sets, l1, l2, d)
}

// SupportOf counts the pre-mined item sets containing the label pair at
// distance d; DistWild counts sets containing the pair at any concrete
// distance. It does the per-probe work of Support without re-mining, so
// callers probing several pairs over one forest mine each tree once.
func SupportOf(sets []ItemSet, l1, l2 string, d Dist) int {
	k := NewKey(l1, l2, d)
	n := 0
	for _, s := range sets {
		if d.IsWild() {
			if _, ok := s.MinDistOf(l1, l2); ok {
				n++
			}
		} else if _, ok := s[k]; ok {
			n++
		}
	}
	return n
}
