package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"treemine/internal/faults"
	"treemine/internal/guard"
	"treemine/internal/tree"
)

// Chaos suite: fault-injection and cancellation tests for the parallel
// and streaming entry points. Every test here runs under `make chaos`
// with -race; the names match the `make race` regex
// (Parallel|Forest|Shard|Stream|Differential) so the standing race gate
// covers them too.

// cancelAfterIterator wraps an iterator and cancels the context after
// yielding k trees — a deterministic "user hits Ctrl-C mid-stream".
type cancelAfterIterator struct {
	inner   TreeIterator
	cancel  context.CancelFunc
	k, seen int
}

func (c *cancelAfterIterator) Next() (*tree.Tree, error) {
	t, err := c.inner.Next()
	if err == nil {
		c.seen++
		if c.seen == c.k {
			c.cancel()
		}
	}
	return t, err
}

// errAtIterator fails with err at tree index k (0-based), yielding the
// underlying trees before that.
type errAtIterator struct {
	inner TreeIterator
	k, i  int
	err   error
}

func (e *errAtIterator) Next() (*tree.Tree, error) {
	if e.i == e.k {
		return nil, e.err
	}
	e.i++
	return e.inner.Next()
}

// waitNoExtraGoroutines retries until the goroutine count returns to
// the baseline (drained pools unwind asynchronously after Wait).
func waitNoExtraGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d > baseline %d\n%s", n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStreamShardCancelCheckpointResumeDifferential is the headline
// acceptance test: cancelling MineForestStreamShardCtx mid-stream
// returns context.Canceled promptly, the shard it returns covers an
// exact prefix of the stream, and checkpointing that shard then
// resuming with SkipTrees = Trees() finishes to results identical to an
// uninterrupted run.
func TestStreamShardCancelCheckpointResumeDifferential(t *testing.T) {
	const n, seed, size, alpha = 400, 19, 30, 8
	opts := DefaultForestOptions()
	want, err := MineForestStream(newGenIterator(seed, n, size, alpha), opts, 3)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	it := &cancelAfterIterator{inner: newGenIterator(seed, n, size, alpha), cancel: cancel, k: 150}
	partial, err := MineForestStreamShardCtx(ctx, it, opts, StreamConfig{Workers: 3, BatchSize: 16})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled stream error = %v, want context.Canceled", err)
	}
	if partial == nil {
		t.Fatal("cancelled stream returned no shard to checkpoint")
	}
	p := partial.Trees()
	// Round-atomic cancellation: the prefix can be shorter than the
	// point of cancellation (the in-flight round is discarded), but
	// never longer than one full round past it.
	if p > 150 {
		t.Fatalf("shard covers %d trees, beyond the cancellation point 150", p)
	}

	// Checkpoint = Snapshot/Restore round trip (what the store file does).
	o, trees, labels, items := partial.Snapshot()
	restored, err := RestoreShard(o, trees, labels, items)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := MineForestStreamShardCtx(context.Background(),
		newGenIterator(seed, n, size, alpha), opts,
		StreamConfig{Workers: 3, BatchSize: 16, Resume: restored, SkipTrees: restored.Trees()})
	if err != nil {
		t.Fatal(err)
	}
	if sh.Trees() != n {
		t.Fatalf("resumed shard holds %d trees, want %d", sh.Trees(), n)
	}
	if got := sh.Finalize(opts.MinSup); !reflect.DeepEqual(got, want) {
		t.Fatalf("resume after cancel diverged: %d vs %d pairs", len(got), len(want))
	}
}

// TestLevelVecCancelledStreamPrefixDifferential pins the §48 blocked
// accumulation path under mid-stream cancellation: every tree of this
// corpus drains through the dense cache-blocked accumulator (the small
// alphabet keeps the miner in dense mode), and the partial shard a
// cancelled MineForestStreamShardCtx returns must still be the EXACT
// support state of a stream prefix — finalizing it equals batch-mining
// the same prefix tree-for-tree.
func TestLevelVecCancelledStreamPrefixDifferential(t *testing.T) {
	const n, seed, size, alpha = 500, 48, 60, 12
	opts := DefaultForestOptions()

	// Sanity: this shape really exercises the blocked path.
	probe := newGenIterator(seed, n, size, alpha)
	tr0, err := probe.Next()
	if err != nil {
		t.Fatal(err)
	}
	syms := NewSymbols()
	syms.InternTree(tr0)
	m := getMiner(tr0, opts.Options, syms)
	m.acc.init(syms.Len(), m.nd)
	if m.acc.dense == nil {
		m.acc.discard()
		m.release()
		t.Fatal("probe tree not in dense mode; corpus would miss the blocked path")
	}
	m.acc.discard()
	m.release()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	it := &cancelAfterIterator{inner: newGenIterator(seed, n, size, alpha), cancel: cancel, k: 200}
	partial, err := MineForestStreamShardCtx(ctx, it, opts, StreamConfig{Workers: 3, BatchSize: 16})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled stream error = %v, want context.Canceled", err)
	}
	p := partial.Trees()
	if p == 0 || p > 200 {
		t.Fatalf("shard covers %d trees, want a nonempty prefix ≤ the cancellation point 200", p)
	}

	fresh := newGenIterator(seed, n, size, alpha)
	forest := make([]*tree.Tree, p)
	for i := range forest {
		if forest[i], err = fresh.Next(); err != nil {
			t.Fatal(err)
		}
	}
	want := MineForest(forest, opts)
	if got := partial.Finalize(opts.MinSup); !reflect.DeepEqual(got, want) {
		t.Fatalf("cancelled shard diverged from its %d-tree prefix: %d vs %d pairs", p, len(got), len(want))
	}
}

// TestStreamIteratorErrorNamesTreeAndResumes injects an iterator
// failure at tree k: the error must name k, the last checkpoint must
// still load, and resuming from it must finish to the uninterrupted
// result.
func TestStreamIteratorErrorNamesTreeAndResumes(t *testing.T) {
	const n, seed, size, alpha = 300, 23, 30, 8
	const failAt = 137
	opts := DefaultForestOptions()
	want, err := MineForestStream(newGenIterator(seed, n, size, alpha), opts, 2)
	if err != nil {
		t.Fatal(err)
	}

	var lastCkpt *SupportShard
	boom := errors.New("disk detached")
	it := &errAtIterator{inner: newGenIterator(seed, n, size, alpha), k: failAt, err: boom}
	_, err = MineForestStreamShardCtx(context.Background(), it, opts, StreamConfig{
		Workers:         2,
		BatchSize:       16,
		CheckpointEvery: 50,
		Checkpoint: func(sh *SupportShard) error {
			o, trees, labels, items := sh.Snapshot()
			restored, rerr := RestoreShard(o, trees, labels, items)
			if rerr != nil {
				return rerr
			}
			lastCkpt = restored
			return nil
		},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("iterator failure error = %v, want wrapped %v", err, boom)
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("tree %d", failAt)) {
		t.Fatalf("error %q does not name the failing tree %d", err, failAt)
	}
	if lastCkpt == nil {
		t.Fatal("no checkpoint was taken before the failure")
	}
	if lastCkpt.Trees() == 0 || lastCkpt.Trees() >= failAt {
		t.Fatalf("checkpoint covers %d trees, want a nonempty prefix below %d", lastCkpt.Trees(), failAt)
	}

	sh, err := MineForestStreamShardCtx(context.Background(),
		newGenIterator(seed, n, size, alpha), opts,
		StreamConfig{Workers: 2, BatchSize: 16, Resume: lastCkpt, SkipTrees: lastCkpt.Trees()})
	if err != nil {
		t.Fatal(err)
	}
	if got := sh.Finalize(opts.MinSup); !reflect.DeepEqual(got, want) {
		t.Fatalf("resume after iterator failure diverged: %d vs %d pairs", len(got), len(want))
	}
}

// TestParallelEntryPointsContainWorkerPanics injects a panic into the
// worker of every parallel entry point: each must return an error
// wrapping guard.ErrPanic (naming the work unit), not crash, and leak
// no goroutines.
func TestParallelEntryPointsContainWorkerPanics(t *testing.T) {
	faults.Reset()
	t.Cleanup(faults.Reset)
	forest := shardChaosForest(31, 40, 25)
	opts := DefaultForestOptions()

	cases := []struct {
		name  string
		point string
		call  func() error
	}{
		{"MineForestParallelCtx", faults.MineWorker, func() error {
			_, err := MineForestParallelCtx(context.Background(), forest, opts, 4)
			return err
		}},
		{"MineForestStreamCtx", faults.MineWorker, func() error {
			_, err := MineForestStreamCtx(context.Background(), NewSliceIterator(forest), opts, 4)
			return err
		}},
		{"BuildProfilesCtx", faults.ProfileWorker, func() error {
			_, err := BuildProfilesCtx(context.Background(), forest, VariantDistOccur, opts.Options, 4)
			return err
		}},
		{"TDistMatrixParallelCtx", faults.MatrixWorker, func() error {
			_, err := TDistMatrixParallelCtx(context.Background(), forest, VariantDistOccur, opts.Options, 4)
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			faults.Reset()
			faults.Enable(tc.point, faults.Spec{Mode: faults.ModePanic, After: 7, Count: 1})
			err := tc.call()
			if err == nil {
				t.Fatalf("%s swallowed an injected worker panic", tc.name)
			}
			if !errors.Is(err, guard.ErrPanic) {
				t.Fatalf("%s error = %v, want wrapped guard.ErrPanic", tc.name, err)
			}
			waitNoExtraGoroutines(t, base)
		})
	}
}

// shardChaosForest builds a deterministic forest via the generator
// iterator (materialized; small enough for the panic-containment runs).
func shardChaosForest(seed int64, n, size int) []*tree.Tree {
	it := newGenIterator(seed, n, size, 8)
	out := make([]*tree.Tree, 0, n)
	for {
		tr, err := it.Next()
		if err == io.EOF {
			return out
		}
		out = append(out, tr)
	}
}

// TestStreamWorkerCountEdgesUnderCancellation sweeps the degenerate
// pool shapes (a single worker; more workers than the batch holds)
// against the cancellation modes: already-cancelled context, expired
// deadline, and cancel-after-first-batch. Every combination must return
// the context's error, never hang, and hand back a prefix shard.
func TestStreamWorkerCountEdgesUnderCancellation(t *testing.T) {
	const n, seed, size, alpha = 200, 29, 25, 8
	opts := DefaultForestOptions()
	for _, workers := range []int{1, 16} {
		batch := 8 // workers=16 > batch=8: more workers than work per round
		for _, mode := range []string{"immediate", "deadline", "after-first-batch"} {
			t.Run(fmt.Sprintf("workers=%d/%s", workers, mode), func(t *testing.T) {
				var ctx context.Context
				var cancel context.CancelFunc
				it := TreeIterator(newGenIterator(seed, n, size, alpha))
				wantErr := context.Canceled
				switch mode {
				case "immediate":
					ctx, cancel = context.WithCancel(context.Background())
					cancel()
				case "deadline":
					ctx, cancel = context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
					wantErr = context.DeadlineExceeded
				case "after-first-batch":
					ctx, cancel = context.WithCancel(context.Background())
					it = &cancelAfterIterator{inner: it, cancel: cancel, k: workers*batch + 1}
				}
				defer cancel()
				sh, err := MineForestStreamShardCtx(ctx, it, opts,
					StreamConfig{Workers: workers, BatchSize: batch})
				if !errors.Is(err, wantErr) {
					t.Fatalf("error = %v, want %v", err, wantErr)
				}
				if sh == nil {
					t.Fatal("no shard returned")
				}
				if mode != "after-first-batch" && sh.Trees() != 0 {
					t.Fatalf("pre-cancelled stream mined %d trees", sh.Trees())
				}
				// Whatever prefix came back must resume to the full result.
				o, trees, labels, items := sh.Snapshot()
				restored, rerr := RestoreShard(o, trees, labels, items)
				if rerr != nil {
					t.Fatal(rerr)
				}
				full, ferr := MineForestStreamShardCtx(context.Background(),
					newGenIterator(seed, n, size, alpha), opts,
					StreamConfig{Workers: workers, BatchSize: batch, Resume: restored, SkipTrees: restored.Trees()})
				if ferr != nil {
					t.Fatal(ferr)
				}
				if full.Trees() != n {
					t.Fatalf("resumed to %d trees, want %d", full.Trees(), n)
				}
			})
		}
	}
}

// TestParallelCancelledReturnsContextError: the batch (non-streaming)
// parallel entry points also observe cancellation between trees.
func TestParallelCancelledReturnsContextError(t *testing.T) {
	forest := shardChaosForest(37, 30, 25)
	opts := DefaultForestOptions()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := MineForestParallelCtx(ctx, forest, opts, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("MineForestParallelCtx error = %v, want Canceled", err)
	}
	if _, err := BuildProfilesCtx(ctx, forest, VariantDistOccur, opts.Options, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("BuildProfilesCtx error = %v, want Canceled", err)
	}
	if _, err := TDistMatrixParallelCtx(ctx, forest, VariantDistOccur, opts.Options, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("TDistMatrixParallelCtx error = %v, want Canceled", err)
	}
}

// flipCtx is a context whose Err turns to Canceled from its n-th call
// on: cancellation landing part-way through a forest, deterministically
// and without timing.
type flipCtx struct {
	context.Context
	n     int32
	calls atomic.Int32
}

func (c *flipCtx) Err() error {
	if c.calls.Add(1) >= c.n {
		return context.Canceled
	}
	return nil
}

// TestParallelSerialCancelBetweenTrees is the regression test for the
// single-worker batch path, which once checked ctx only before mining
// the whole forest: at every worker count, cancellation that lands
// mid-forest must surface as Canceled.
func TestParallelSerialCancelBetweenTrees(t *testing.T) {
	forest := shardChaosForest(41, 40, 25)
	opts := DefaultForestOptions()
	for _, workers := range []int{1, 2} {
		ctx := &flipCtx{Context: context.Background(), n: 10}
		if _, err := MineForestParallelCtx(ctx, forest, opts, workers); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: error = %v after cancellation at ctx check %d, want Canceled", workers, err, ctx.n)
		}
	}
}

// TestStreamCheckpointFaultInjection drives the checkpoint failpoint:
// an injected checkpoint failure aborts the stream with a wrapped
// error, and after the failpoint disarms the same run succeeds.
func TestStreamCheckpointFaultInjection(t *testing.T) {
	faults.Reset()
	t.Cleanup(faults.Reset)
	opts := DefaultForestOptions()
	faults.Enable(faults.StreamCheckpoint, faults.Spec{Mode: faults.ModeError, Count: 1})
	_, err := MineForestStreamShardCtx(context.Background(),
		newGenIterator(3, 100, 20, 5), opts,
		StreamConfig{Workers: 2, BatchSize: 10, CheckpointEvery: 30,
			Checkpoint: func(*SupportShard) error { return nil }})
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("checkpoint fault error = %v, want injected", err)
	}
	if !strings.Contains(err.Error(), "checkpoint") {
		t.Fatalf("error %q does not name the checkpoint stage", err)
	}

	sh, err := MineForestStreamShardCtx(context.Background(),
		newGenIterator(3, 100, 20, 5), opts,
		StreamConfig{Workers: 2, BatchSize: 10, CheckpointEvery: 30,
			Checkpoint: func(*SupportShard) error { return nil }})
	if err != nil || sh.Trees() != 100 {
		t.Fatalf("post-fault run: %v, trees %d", err, sh.Trees())
	}
}
