package core

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"

	"treemine/internal/faults"
	"treemine/internal/guard"
	"treemine/internal/tree"
)

// TreeIterator yields the trees of a forest one at a time. Next returns
// io.EOF after the last tree; any other error aborts the consumer.
// Iterators let forest mining run over corpora that never fit in memory
// — a Newick stream on disk, a generator, a network feed.
type TreeIterator interface {
	Next() (*tree.Tree, error)
}

// skimmer is the optional fast-skip capability of a TreeIterator:
// consume the next tree without building it. A resumed stream skips the
// prefix its checkpoint covers with it (the Newick source chunk-scans
// instead of parsing).
type skimmer interface {
	Skim() error
}

// sliceIterator adapts an in-memory forest to the TreeIterator interface.
type sliceIterator struct {
	trees []*tree.Tree
	i     int
}

// NewSliceIterator returns a TreeIterator over an in-memory forest.
func NewSliceIterator(trees []*tree.Tree) TreeIterator {
	return &sliceIterator{trees: trees}
}

func (it *sliceIterator) Next() (*tree.Tree, error) {
	if it.i >= len(it.trees) {
		return nil, io.EOF
	}
	t := it.trees[it.i]
	it.i++
	return t, nil
}

// StreamConfig tunes MineForestStreamShard beyond the plain
// MineForestStream entry point. The zero value is usable: GOMAXPROCS
// workers, the default batch size, no checkpointing, a fresh shard.
type StreamConfig struct {
	// Workers is the number of concurrent mining goroutines; ≤ 0 selects
	// GOMAXPROCS.
	Workers int
	// BatchSize is the number of trees each worker receives per round;
	// Workers × BatchSize trees are resident at a time, which (plus the
	// support shard itself) is the pipeline's whole memory footprint.
	// ≤ 0 selects the default of 64.
	BatchSize int
	// CheckpointEvery invokes Checkpoint after at least this many trees
	// have been folded in since the last checkpoint (and once more at
	// the end of the stream). 0 disables checkpointing.
	CheckpointEvery int
	// Checkpoint receives the master shard between rounds — typically to
	// serialize it through internal/store. The shard is quiescent for
	// the duration of the call. A non-nil error aborts the stream.
	Checkpoint func(*SupportShard) error
	// AfterRound, when non-nil, runs after every mined round while the
	// master shard is quiescent — before any checkpoint due that round.
	// It is the out-of-core hook: a spill accumulator checks the shard's
	// resident entry count here and drains it to disk past its budget. A
	// non-nil error aborts the stream.
	AfterRound func(*SupportShard) error
	// Resume, when non-nil, is the shard to continue into (e.g. one
	// reloaded from a checkpoint file) instead of a fresh one. Its
	// options must equal the mining options.
	Resume *SupportShard
	// SkipTrees discards this many leading trees from the iterator
	// before mining — set it to Resume.Trees() when replaying the same
	// stream a checkpointed run was consuming. An iterator with a
	// Skim() error method is skimmed past them instead of built.
	SkipTrees int
}

const defaultStreamBatch = 64

// MineForestStream is Multiple_Tree_Mining over a tree stream: trees are
// consumed from it in bounded rounds, each mined concurrently by workers
// into one SupportShard, which is finalized into the result. The output is exactly MineForest's — same pairs, same counts,
// same order — but peak memory is bounded by workers × batch trees plus
// the support table, rather than by the corpus, so it scales to forests
// that never fit in memory. workers ≤ 0 selects GOMAXPROCS.
func MineForestStream(it TreeIterator, opts ForestOptions, workers int) ([]FrequentPair, error) {
	return MineForestStreamCtx(context.Background(), it, opts, workers)
}

// MineForestStreamCtx is MineForestStream under a context: cancellation
// is observed within one batch of work and surfaces as ctx.Err().
func MineForestStreamCtx(ctx context.Context, it TreeIterator, opts ForestOptions, workers int) ([]FrequentPair, error) {
	sh, err := MineForestStreamShardCtx(ctx, it, opts, StreamConfig{Workers: workers})
	if err != nil {
		return nil, err
	}
	return sh.Finalize(opts.MinSup), nil
}

// MineForestStreamShard is the configurable streaming core: it returns
// the accumulated SupportShard instead of finalizing, supports
// checkpoint callbacks and resuming from a restored shard, and on error
// returns the shard mined so far alongside the error (so a caller can
// checkpoint even a failed run).
func MineForestStreamShard(it TreeIterator, opts ForestOptions, cfg StreamConfig) (*SupportShard, error) {
	return MineForestStreamShardCtx(context.Background(), it, opts, cfg)
}

// MineForestStreamShardCtx is MineForestStreamShard under a context.
// Cancellation is cooperative and round-atomic: the iterator fill loop
// checks ctx per tree and the mining workers per mined tree, but a
// cancelled multi-worker round's partial accumulators and interned
// labels are discarded rather than kept — so the returned shard always
// covers an exact prefix of the stream, its Trees() count names that
// prefix, its bytes equal those of a run over just that prefix, and a
// checkpoint of it resumes (SkipTrees = Trees()) to results identical
// to an uninterrupted run. The call returns ctx.Err() within one round
// (≤ workers × batch trees) of cancellation.
//
// A worker panic is contained at the pool boundary: it surfaces as an
// error wrapping guard.ErrPanic naming the offending stream tree index,
// the remaining workers drain, and — like every other mid-stream error —
// the shard mined through the last completed round is still returned.
// Iterator errors are wrapped with the index of the tree that failed.
func MineForestStreamShardCtx(ctx context.Context, it TreeIterator, opts ForestOptions, cfg StreamConfig) (*SupportShard, error) {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	batch := cfg.BatchSize
	if batch <= 0 {
		batch = defaultStreamBatch
	}
	master := cfg.Resume
	if master == nil {
		master = NewSupportShard(opts)
	} else if master.Options() != opts {
		return nil, fmt.Errorf("core: resume shard was mined with options %+v, stream wants %+v",
			master.Options(), opts)
	}

	// streamed is the absolute index (within the whole stream) of the
	// next tree the iterator will yield — used to name the offending
	// tree in iterator and worker errors.
	streamed := 0
	skip := func() error { _, err := it.Next(); return err }
	if sk, ok := it.(skimmer); ok {
		skip = sk.Skim
	}
	for ; streamed < cfg.SkipTrees; streamed++ {
		if err := ctx.Err(); err != nil {
			return master, err
		}
		if err := skip(); err != nil {
			if err == io.EOF {
				return master, nil
			}
			return master, fmt.Errorf("core: stream: skipping tree %d: %w", streamed, err)
		}
	}

	buf := make([]*tree.Tree, 0, workers*batch)
	privs := make([]accum, workers)
	sinceCheckpoint := 0
	for {
		buf = buf[:0]
		done := false
		for len(buf) < cap(buf) {
			if err := ctx.Err(); err != nil {
				return master, err
			}
			if err := faults.Hit(faults.StreamNext); err != nil {
				return master, fmt.Errorf("core: stream: tree %d: %w", streamed, err)
			}
			t, err := it.Next()
			if err == io.EOF {
				done = true
				break
			}
			if err != nil {
				return master, fmt.Errorf("core: stream: tree %d: %w", streamed, err)
			}
			streamed++
			if t == nil {
				continue
			}
			buf = append(buf, t)
		}

		if len(buf) > 0 {
			if err := mineRound(ctx, master, buf, streamed-len(buf), workers, privs); err != nil {
				return master, err
			}
			sinceCheckpoint += len(buf)
			// Drop the tree references before any checkpoint GC so the
			// round's trees are collectible — this is what keeps the live
			// heap bounded by one round.
			for i := range buf {
				buf[i] = nil
			}
			if cfg.AfterRound != nil {
				if err := cfg.AfterRound(master); err != nil {
					return master, fmt.Errorf("core: stream: after round at %d trees: %w", master.Trees(), err)
				}
			}
		}

		if cfg.CheckpointEvery > 0 && cfg.Checkpoint != nil && sinceCheckpoint > 0 &&
			(sinceCheckpoint >= cfg.CheckpointEvery || done) {
			if err := faults.Hit(faults.StreamCheckpoint); err != nil {
				return master, fmt.Errorf("core: stream: checkpoint after %d trees: %w", master.Trees(), err)
			}
			if err := cfg.Checkpoint(master); err != nil {
				return master, fmt.Errorf("core: stream: checkpoint after %d trees: %w", master.Trees(), err)
			}
			sinceCheckpoint = 0
		}
		if done {
			return master, nil
		}
	}
}

// mineTreeGuarded runs mine on one tree with the panic containment and
// fault injection every mining pool shares; i is the tree's absolute
// stream index for the error label.
func mineTreeGuarded(mine func(*tree.Tree), t *tree.Tree, i int) error {
	err := guard.Run(func() error {
		if err := faults.Hit(faults.MineWorker); err != nil {
			return err
		}
		mine(t)
		return nil
	})
	if err != nil {
		return fmt.Errorf("core: stream: mining tree %d: %w", i, err)
	}
	return nil
}

// mineRound mines one batch of trees into master; base is the absolute
// stream index of buf[0]. A single worker folds the trees into master
// one by one, in buf order, so an early return still leaves master
// covering a prefix. Several workers take the multi-worker round of
// SupportShard.addRound, which is all-or-nothing. Either way the
// exact-prefix invariant MineForestStreamShardCtx documents holds, and
// since support counts are additive the result is independent of worker
// scheduling.
func mineRound(ctx context.Context, master *SupportShard, buf []*tree.Tree, base, workers int, privs []accum) error {
	if workers > len(buf) {
		workers = len(buf)
	}
	if workers <= 1 {
		for i, t := range buf {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := mineTreeGuarded(master.AddTree, t, base+i); err != nil {
				return err
			}
		}
		return nil
	}
	return master.addRound(ctx, buf, base, privs[:workers])
}

// mineStride mines buf[w], buf[w+workers], … through mine, checking ctx
// between trees; it stops at the first error.
func mineStride(ctx context.Context, buf []*tree.Tree, base, w, workers int, mine func(*tree.Tree)) error {
	for i := w; i < len(buf); i += workers {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := mineTreeGuarded(mine, buf[i], base+i); err != nil {
			return err
		}
	}
	return nil
}

// addRound mines buf into sh over len(privs) workers. The round's labels
// are interned into sh's table first; the workers then share that table
// read-only, each mining its strided slice of buf into its private
// accumulator, and on success the privates drain into sh. On
// cancellation or a contained panic the privates are discarded and the
// labels interned for the round are truncated away, leaving sh exactly
// as it was — so a checkpoint still covers an exact prefix of the
// stream, byte for byte. Past MaxPackedDist the privates are string-keyed
// maps instead. sh stays locked for the whole round.
func (sh *SupportShard) addRound(ctx context.Context, buf []*tree.Tree, base int, privs []accum) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	workers := len(privs)
	if sh.sup == nil {
		gprivs := make([]map[Key]int64, workers)
		err := forEachWorker(workers, func(w int) error {
			gprivs[w] = make(map[Key]int64)
			return mineStride(ctx, buf, base, w, workers, func(t *tree.Tree) {
				for k := range forestItems(t, sh.opts, false) {
					gprivs[w][k]++
				}
			})
		})
		if err != nil {
			return err
		}
		for _, g := range gprivs {
			for k, n := range g {
				sh.gsup[k] += n
			}
		}
		sh.trees += len(buf)
		return nil
	}

	sh.unrun()
	before := sh.syms.Len()
	for _, t := range buf {
		sh.syms.InternTree(t)
	}
	l, nd := sh.syms.Len(), supportSlots(sh.opts)
	err := forEachWorker(workers, func(w int) error {
		privs[w].init(l, nd)
		sup := supportSink{acc: &privs[w]}
		m := minerPool.Get().(*miner)
		err := mineStride(ctx, buf, base, w, workers, func(t *tree.Tree) {
			m.reset(t, sh.opts.Options, sh.syms)
			mineTreeSupport(m, sh.opts, sup)
		})
		// A miner that failed mid-tree may hold a half-updated arena;
		// drop it instead of poisoning the pool.
		if err == nil {
			m.release()
		}
		return err
	})
	if err != nil {
		sh.syms.truncate(before)
		return err
	}
	sup := sh.sink(len(buf))
	for w := range privs {
		privs[w].drain(sup.add)
	}
	sh.trees += len(buf)
	return nil
}

// forEachWorker runs work(0) … work(workers-1) concurrently, waits for
// all of them, and returns the first failure (guard.First).
func forEachWorker(workers int, work func(w int) error) error {
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = work(w)
		}(w)
	}
	wg.Wait()
	return guard.First(errs)
}
