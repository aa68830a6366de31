package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"treemine/internal/tree"
)

// SupportShard is a mergeable partial result of Multiple_Tree_Mining: the
// per-pair support counts of some subset of a forest, together with the
// shard's own incrementally grown symbol table. Shards are the unit of
// streamed and distributed forest mining — workers each fold their slice
// of the stream into a private shard, shards merge pairwise (symbol IDs
// are remapped through labels, so shards built over disjoint label sets
// combine correctly), and Finalize renders the merged counts into the
// same sorted FrequentPair output MineForest produces. Partial shards
// serialize through internal/store's version-3 format, which is what
// lets a long mining run checkpoint and resume.
//
// All methods are safe for concurrent use; AddTree from many goroutines
// contends on one mutex, so for throughput mine through
// MineForestStreamShard with several workers, which interns a round's
// labels into the shard's table and mines the round into per-worker
// accumulators sharing it.
type SupportShard struct {
	mu    sync.Mutex
	opts  ForestOptions
	trees int

	// Packed mode (opts.MaxDist ≤ MaxPackedDist): counts keyed by IKey
	// over the shard-local symbol table. sup is the durable store;
	// pending, when its table is allocated, holds counts of the last
	// pendingTrees trees not yet folded into sup (see sink and flush).
	syms         *Symbols
	sup          map[IKey]int64
	pending      accum
	pendingTrees int
	// miner is AddTree's scratch, owned by the shard rather than drawn
	// from the per-P pool, so one shard keeps exactly one warm miner.
	miner *miner
	// run, when non-nil, holds the counts instead of sup: sup and
	// pending are empty, the symbol IDs are the ranks of a strictly
	// sorted table, and the run is strictly ascending with A ≤ B — the
	// canonical Snapshot, kept as it arrived from a canonical fold or
	// restore (see adoptable). Every mutation but a fold that continues
	// the run first moves it into sup (unrun).
	run *packedRun
	// byLabel and rank are DrainSorted's label order (see labelRanks).
	byLabel, rank []uint32

	// Generic mode (beyond MaxPackedDist): counts keyed by string Key.
	gsup map[Key]int64
}

// NewSupportShard returns an empty shard accumulating support under opts.
// Every shard that will ever be merged with it must be built with equal
// options.
func NewSupportShard(opts ForestOptions) *SupportShard {
	sh := &SupportShard{opts: opts}
	if packable(opts.MaxDist) {
		sh.syms = NewSymbols()
		sh.sup = make(map[IKey]int64)
	} else {
		sh.gsup = make(map[Key]int64)
	}
	return sh
}

// Options returns the mining options the shard accumulates under.
func (sh *SupportShard) Options() ForestOptions { return sh.opts }

// Trees returns the number of trees folded into the shard so far,
// including trees contributed by merged shards.
func (sh *SupportShard) Trees() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.trees
}

// Len returns the number of distinct support entries currently held —
// the quantity that bounds a shard's memory, independent of how many
// trees streamed through it.
func (sh *SupportShard) Len() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.run != nil {
		return sh.run.len()
	}
	if sh.sup != nil {
		sh.flush()
		return len(sh.sup)
	}
	return len(sh.gsup)
}

// AddTree mines t under the shard's options and folds its qualifying
// items into the support counts: +1 per item t contains with occurrence
// ≥ MinOccur, de-duplicated per label pair when IgnoreDist is set. New
// labels are interned into the shard's own symbol table as they appear —
// no up-front whole-forest symbol pass is needed, which is what makes
// shards streamable.
func (sh *SupportShard) AddTree(t *tree.Tree) { sh.addTree(t, false) }

// AddUnrooted is AddTree for a free tree oriented from one of its nodes:
// t is mined under MineUnrooted's level-pair rule (DESIGN.md §59). One
// shard may take both kinds of tree; the rule belongs to the call.
func (sh *SupportShard) AddUnrooted(t *tree.Tree) { sh.addTree(t, true) }

func (sh *SupportShard) addTree(t *tree.Tree, unrooted bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.trees++
	if sh.sup == nil {
		for k := range forestItems(t, sh.opts, unrooted) {
			sh.gsup[k]++
		}
		return
	}
	sh.unrun()
	sh.syms.InternTree(t)
	// The miner is kept only after a clean pass: a panic mid-tree may
	// leave its arena half-updated, and it is dropped instead.
	m := sh.miner
	if m == nil {
		m = new(miner)
	}
	sh.miner = nil
	m.unrooted = unrooted
	m.reset(t, sh.opts.Options, sh.syms)
	mineTreeSupport(m, sh.opts, sh.sink(1))
	m.t = nil // keep no tree alive: a stream's live heap is one round
	sh.miner = m
}

// sink returns where the counts of n more trees over the current
// alphabet go. While the alphabet fits a dense table that is the pending
// accumulator, provisioned with headroom for labels still to come; it is
// flushed first when the alphabet has outgrown it or when n more trees
// could overflow its int32 cells (each tree adds at most 1 per cell).
// Past the dense limit the counts go straight into sup.
func (sh *SupportShard) sink(n int) supportSink {
	l, nd := sh.syms.Len(), supportSlots(sh.opts)
	if sh.pendingTrees > 0 && (l > sh.pending.l || sh.pendingTrees > math.MaxInt32-n) {
		sh.flush()
	}
	if !denseFits(l, nd) {
		return supportSink{m: sh.sup, wild: sh.opts.IgnoreDist}
	}
	if sh.pendingTrees == 0 {
		// Round up to whole bitmap words so a growing stream
		// re-provisions once per 64 new labels, not per label.
		if c := max(64, (l+63)&^63); denseFits(c, nd) {
			l = c
		}
		sh.pending.init(l, nd)
	}
	sh.pendingTrees += n
	return supportSink{acc: &sh.pending}
}

// adoptable reports whether sh is a packed shard with nothing in it —
// no symbols, entries or pending trees — so a canonical batch can
// become its run as it stands.
func (sh *SupportShard) adoptable() bool {
	return sh.sup != nil && sh.run == nil && sh.syms.Len() == 0 && len(sh.sup) == 0 && sh.pendingTrees == 0
}

// unrun moves a run-backed shard's counts into sup; from there on every
// path behaves exactly as on a shard that never had a run.
func (sh *SupportShard) unrun() {
	if sh.run == nil {
		return
	}
	sh.sup = make(map[IKey]int64, sh.run.len())
	for _, w := range sh.run.words {
		it := sh.run.item(w)
		sh.sup[NewIKey(it.A, it.B, it.D)] = it.N
	}
	sh.run = nil
}

// flush drains the pending accumulator into sup and drops its table,
// so a shard at rest — read, snapshotted, spilled, or checkpointed —
// holds its counts in sup alone, with no pending table besides.
func (sh *SupportShard) flush() {
	if sh.pendingTrees == 0 {
		return
	}
	sh.pending.drain(supportSink{m: sh.sup, wild: sh.opts.IgnoreDist}.add)
	sh.pending, sh.pendingTrees = accum{}, 0
}

// Merge folds other's counts and tree tally into sh. The two shards'
// options must be equal; symbol IDs are remapped through their labels
// (cross-table symbol translation), so the shards may have been built
// over different (even disjoint) label sets in any order — Merge is
// commutative and associative in the final counts. other is read under
// its own lock and left unchanged; the two locks are never held
// together, so concurrent AddTree and Merge calls on any shard
// arrangement cannot deadlock.
//
// Merge is the in-memory half of distributed mining: worker processes
// each mine a tree range into a private shard, and the coordinator folds
// them — in any association order — into one master whose canonical
// Snapshot is identical to a single-process run's.
func (sh *SupportShard) Merge(other *SupportShard) error {
	if other.opts != sh.opts {
		return fmt.Errorf("core: merging shards with different options (%+v vs %+v)", other.opts, sh.opts)
	}
	otherTrees, labels, items, _ := other.snapshotLocal()
	return sh.FoldFrom(labels)(otherTrees, items)
}

// FoldFrom returns a fold of support entries coded against a foreign
// label table into sh: each call adds trees to the tally and translates
// its items' symbol indices through labels into sh's own table. It is
// the primitive Merge shares with the spill/merge streaming paths — a
// batch folds under one lock acquisition, and the translation into sh's
// table is built by the first call and reused by every later one, so a
// file folded in many batches interns each of its labels once. Items
// referencing labels out of range are rejected (the batch may have come
// from a corrupt file), though entries folded before the offending one
// remain — callers treating a fold error as fatal should discard sh.
//
// A fold into an empty packed shard whose labels are strictly sorted
// adopts the batches as the shard's run, for as long as each batch
// continues it in canonical order (DESIGN.md §56): a canonical spilled
// file or a run-backed Merge then lands with no map at all. The first
// batch that does not continue the run moves it into the map and folds
// as above.
func (sh *SupportShard) FoldFrom(labels []string) func(trees int, items []ShardItem) error {
	var trans []uint32
	var run *packedRun // the run this fold adopted, while sh still holds it
	return func(trees int, items []ShardItem) error {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		sh.trees += trees
		if sh.sup != nil && trans == nil {
			if sh.adoptable() && strictlySorted(labels) {
				run = newPackedRun(len(labels))
				sh.run = run
			}
			trans = make([]uint32, len(labels))
			for i, l := range labels {
				trans[i] = sh.syms.Intern(l)
			}
		}
		if run != nil {
			if sh.run == run && run.extend(items) {
				return nil
			}
			run = nil
		}
		sh.unrun()
		for _, it := range items {
			if int(it.A) >= len(labels) || int(it.B) >= len(labels) {
				return fmt.Errorf("core: fold: symbol id out of range (%d labels)", len(labels))
			}
			if sh.sup != nil {
				sh.sup[NewIKey(trans[it.A], trans[it.B], it.D)] += it.N
			} else {
				sh.gsup[NewKey(labels[it.A], labels[it.B], it.D)] += it.N
			}
		}
		return nil
	}
}

// snapshotLocal exports the shard's state without canonicalizing: labels
// in intern order, items in map order coded against them. It is the O(n)
// export Merge uses — the canonical Snapshot sorts twice, which matters
// when merging every round of a streaming run. A run-backed shard's
// export is already canonical, and canon reports it.
func (sh *SupportShard) snapshotLocal() (trees int, labels []string, items []ShardItem, canon bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	trees = sh.trees
	if sh.sup != nil {
		sh.flush()
		labels = make([]string, sh.syms.Len())
		for id := range labels {
			labels[id] = sh.syms.Label(uint32(id))
		}
		if sh.run != nil {
			return trees, labels, sh.run.items(), true
		}
		items = make([]ShardItem, 0, len(sh.sup))
		for k, n := range sh.sup {
			a, b := k.Syms()
			items = append(items, ShardItem{A: a, B: b, D: k.Dist(), N: n})
		}
		return trees, labels, items, false
	}
	syms := NewSymbols()
	items = make([]ShardItem, 0, len(sh.gsup))
	for k, n := range sh.gsup {
		items = append(items, ShardItem{A: syms.Intern(k.A), B: syms.Intern(k.B), D: k.D, N: n})
	}
	labels = make([]string, syms.Len())
	for id := range labels {
		labels[id] = syms.Label(uint32(id))
	}
	return trees, labels, items, false
}

// DrainSorted exports and clears the shard's current support entries:
// the items come back coded against the shard's own symbol table, in
// label order — by (label(A), label(B), D), with A and B swapped where
// needed so label(A) ≤ label(B) — and the count map is reset while the
// symbol table and tree tally stay, so symbol IDs remain stable across
// successive drains. Labels never change, so every drain of a run, and
// every worker's drains, agree on that order: recoding a run through
// the final label ranks leaves it in canonical Snapshot order. This is
// the spill primitive: an out-of-core accumulator drains the resident
// counts to a sorted on-disk run whenever they grow past its budget,
// and the union of all drained runs (summed per key) equals the counts
// an undrained shard would hold. Only packed shards (MaxDist ≤
// MaxPackedDist) support draining: a generic shard has no persistent
// table to keep IDs stable against.
func (sh *SupportShard) DrainSorted() ([]ShardItem, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.sup == nil {
		return nil, fmt.Errorf("core: drain: shard mined past MaxPackedDist has no stable symbol table")
	}
	sh.unrun()
	sh.flush()
	rank := sh.labelRanks()
	items := make([]ShardItem, 0, len(sh.sup))
	for k, n := range sh.sup {
		a, b := k.Syms()
		a, b = rank[a], rank[b]
		if b < a {
			a, b = b, a
		}
		items = append(items, ShardItem{A: a, B: b, D: k.Dist(), N: n})
	}
	SortShardItems(items)
	for i := range items {
		items[i].A, items[i].B = sh.byLabel[items[i].A], sh.byLabel[items[i].B]
	}
	clear(sh.sup)
	return items, nil
}

// LocalLabels returns the shard's label table in intern (symbol ID)
// order — the table DrainSorted items are coded against. Generic shards
// return nil (they keep string keys, not a table).
func (sh *SupportShard) LocalLabels() []string {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.syms == nil {
		return nil
	}
	labels := make([]string, sh.syms.Len())
	for id := range labels {
		labels[id] = sh.syms.Label(uint32(id))
	}
	return labels
}

// Finalize renders the accumulated counts into the public result: the
// pairs with support ≥ minsup, sorted by decreasing support then key —
// exactly MineForest's output shape. The shard is left intact, so a
// streaming pipeline can checkpoint intermediate results and keep
// mining. minsup ≤ 1 reports every accumulated pair. It sorts the
// canonical export on integers — rank order of the sorted label table
// is key order — and builds the string keys only for the result.
func (sh *SupportShard) Finalize(minsup int) []FrequentPair {
	_, labels, items, _ := sh.canonical()
	items = slices.DeleteFunc(items, func(it ShardItem) bool { return it.N < int64(minsup) })
	if len(items) == 0 {
		return nil
	}
	slices.SortFunc(items, func(x, y ShardItem) int {
		if c := cmp.Compare(y.N, x.N); c != 0 {
			return c
		}
		return compareShardItems(x, y)
	})
	out := make([]FrequentPair, len(items))
	for i, it := range items {
		out[i] = FrequentPair{Key: Key{A: labels[it.A], B: labels[it.B], D: it.D}, Support: int(it.N)}
	}
	return out
}

// ShardItem is one serialized support entry: two indices into the
// snapshot's label table, a distance (DistWild under IgnoreDist), and
// the tree count.
type ShardItem struct {
	A, B uint32
	D    Dist
	N    int64
}

// Snapshot exports the shard's state for serialization in canonical
// form: its options, tree tally, the label table sorted
// lexicographically, and the support entries re-coded against that
// sorted table, ordered by (A, B, D). Canonicalizing erases intern
// order — which depends on tree arrival order, worker interleaving, and
// merge association — so two shards holding the same logical counts
// snapshot identically no matter how they were assembled. That is the
// invariant distributed mining's differential proof rests on: a master
// merged from any partitioning serializes to the same v3 bytes as a
// single-process run. A run-backed shard is its canonical snapshot
// already: the export copies the run and the labels, with no map walk
// and no sort.
func (sh *SupportShard) Snapshot() (opts ForestOptions, trees int, labels []string, items []ShardItem) {
	trees, labels, items, sorted := sh.canonical()
	if !sorted {
		SortShardItems(items)
	}
	return sh.opts, trees, labels, items
}

// canonical exports the shard against its lexicographically sorted
// label table: every item re-coded with A ≤ B, in no particular order
// unless sorted reports that they are already in (A, B, D) order.
func (sh *SupportShard) canonical() (trees int, labels []string, items []ShardItem, sorted bool) {
	trees, local, items, canon := sh.snapshotLocal()
	if canon {
		return trees, local, items, true
	}
	labels, trans := canonicalLabels(local)
	for i := range items {
		a, b := trans[items[i].A], trans[items[i].B]
		if b < a {
			a, b = b, a
		}
		items[i].A, items[i].B = a, b
	}
	return trees, labels, items, false
}

// canonicalLabels sorts a label table lexicographically and returns the
// translation vector from old IDs to canonical ranks.
func canonicalLabels(local []string) (sorted []string, trans []uint32) {
	sorted = append([]string(nil), local...)
	sort.Strings(sorted)
	rank := make(map[string]uint32, len(sorted))
	for i, l := range sorted {
		rank[l] = uint32(i)
	}
	trans = make([]uint32, len(local))
	for i, l := range local {
		trans[i] = rank[l]
	}
	return sorted, trans
}

// compareShardItems orders items by (A, B, D).
func compareShardItems(x, y ShardItem) int {
	if c := cmp.Compare(x.A, y.A); c != 0 {
		return c
	}
	if c := cmp.Compare(x.B, y.B); c != 0 {
		return c
	}
	return cmp.Compare(x.D, y.D)
}

// RestoreShard rebuilds a shard from a Snapshot-shaped export, validating
// every reference so corrupt serialized input surfaces as an error and
// never as a panic or an invalid shard. A canonical export — a strictly
// sorted label table and strictly ascending items with A ≤ B, which is
// what Snapshot writes — becomes the shard's run as it stands; any other
// export is restored into the map.
func RestoreShard(opts ForestOptions, trees int, labels []string, items []ShardItem) (*SupportShard, error) {
	if trees < 0 {
		return nil, fmt.Errorf("core: restore shard: negative tree count %d", trees)
	}
	if len(labels) > MaxSymbols {
		return nil, fmt.Errorf("core: restore shard: %d labels exceed the symbol space", len(labels))
	}
	sh := NewSupportShard(opts)
	sh.trees = trees
	if sh.sup != nil {
		for i, l := range labels {
			if id := sh.syms.Intern(l); id != uint32(i) {
				return nil, fmt.Errorf("core: restore shard: duplicate label %q", l)
			}
		}
		if strictlySorted(labels) {
			sh.run = newPackedRun(len(labels))
		}
	}
	for _, it := range items {
		if int(it.A) >= len(labels) || int(it.B) >= len(labels) {
			return nil, fmt.Errorf("core: restore shard: symbol id out of range")
		}
		if it.N < 1 {
			return nil, fmt.Errorf("core: restore shard: non-positive count %d", it.N)
		}
		if opts.IgnoreDist != it.D.IsWild() {
			return nil, fmt.Errorf("core: restore shard: distance %s inconsistent with IgnoreDist=%v", it.D, opts.IgnoreDist)
		}
		if !it.D.IsWild() && (it.D < 0 || it.D > opts.MaxDist) {
			return nil, fmt.Errorf("core: restore shard: distance %s beyond maxdist %s", it.D, opts.MaxDist)
		}
		if sh.run != nil && sh.run.push(it) {
			continue
		}
		sh.unrun()
		if sh.sup != nil {
			sh.sup[NewIKey(it.A, it.B, it.D)] += it.N
		} else {
			sh.gsup[NewKey(labels[it.A], labels[it.B], it.D)] += it.N
		}
	}
	return sh, nil
}
