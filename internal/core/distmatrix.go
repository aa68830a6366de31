package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"treemine/internal/faults"
	"treemine/internal/guard"
	"treemine/internal/tree"
)

// DistMatrix is a symmetric pairwise tree-distance matrix with a zero
// diagonal, stored as the row-major condensed upper triangle — the same
// layout internal/cluster.Matrix uses, so the slice can be handed across
// without copying.
type DistMatrix struct {
	n int
	d []float64
}

// Len returns the number of trees.
func (m *DistMatrix) Len() int { return m.n }

// At returns the distance between trees i and j; the diagonal is 0.
func (m *DistMatrix) At(i, j int) float64 {
	if i == j {
		return 0
	}
	if i > j {
		i, j = j, i
	}
	return m.d[i*(2*m.n-i-1)/2+(j-i-1)]
}

// Condensed returns the backing upper triangle: entry (i, j), i < j,
// lives at i*(2n−i−1)/2 + (j−i−1).
func (m *DistMatrix) Condensed() []float64 { return m.d }

// BuildProfiles mines every tree once and freezes each item set into a
// Profile under the variant. When the options are packable the whole
// forest is interned into one shared Symbols table first (a serial
// pass, as a multi-worker mining round does) and mining fans out over
// workers on packed integer keys; beyond MaxPackedDist the string-keyed
// miner runs instead, still one tree per worker. workers ≤ 0 selects
// GOMAXPROCS.
func BuildProfiles(trees []*tree.Tree, v Variant, opts Options, workers int) []*Profile {
	profiles, err := BuildProfilesCtx(context.Background(), trees, v, opts, workers)
	if err != nil {
		// Unreachable without a cancellable context or an armed
		// failpoint: re-raise to keep the no-error signature honest.
		panic(err)
	}
	return profiles
}

// BuildProfilesCtx is BuildProfiles under a context: workers check ctx
// between trees, and a panicking worker is contained into an error
// naming the offending tree index while the rest of the pool drains.
func BuildProfilesCtx(ctx context.Context, trees []*tree.Tree, v Variant, opts Options, workers int) ([]*Profile, error) {
	profiles := make([]*Profile, len(trees))
	if len(trees) == 0 {
		return profiles, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(trees) {
		workers = len(trees)
	}
	profile := profiler(trees, v, opts)
	mineOne := func(i int) error {
		err := guard.Run(func() error {
			if err := faults.Hit(faults.ProfileWorker); err != nil {
				return err
			}
			profiles[i] = profile(trees[i])
			return nil
		})
		if err != nil {
			return wrapWorkerErr(err, fmt.Sprintf("core: profiling tree %d", i))
		}
		return nil
	}
	if workers <= 1 {
		for i := range trees {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if err := mineOne(i); err != nil {
				return nil, err
			}
		}
		return profiles, nil
	}
	var next atomic.Int64
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				if err := ctx.Err(); err != nil {
					errs[w] = err
					return
				}
				i := int(next.Add(1)) - 1
				if i >= len(trees) {
					return
				}
				if err := mineOne(i); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := guard.First(errs); err != nil {
		return nil, err
	}
	return profiles, nil
}

// ProfileDistMatrix fills the all-pairs distance matrix of pre-built
// profiles. The upper triangle is split into bands of rows claimed with
// work-stealing, and each band is filled column-block by column-block:
// every profile of the block stays cache-hot while it merge-joins
// against all rows of the band, instead of being re-fetched once per
// row (§48 applies the same cache-blocking as the mining accumulator).
// Bands never overlap, so no locking; shrinking band widths balance
// themselves across workers. workers ≤ 0 selects GOMAXPROCS.
func ProfileDistMatrix(profiles []*Profile, workers int) *DistMatrix {
	m, err := ProfileDistMatrixCtx(context.Background(), profiles, workers)
	if err != nil {
		panic(err) // unreachable without a cancellable ctx or armed failpoint
	}
	return m
}

// matrixRowBand and matrixColBlock are the tile shape of the condensed
// fill: a worker claims matrixRowBand consecutive rows and joins them
// against the later profiles matrixColBlock columns at a time. The
// block bounds the working set (block profiles + band row profiles); the
// band bounds how many rows each block fetch is amortized over.
const (
	matrixRowBand  = 8
	matrixColBlock = 64
)

// ProfileDistMatrixCtx is ProfileDistMatrix under a context: workers
// check ctx between row bands (the bounded unit of matrix work), and a
// panicking worker is contained into an error naming the row being
// filled when it died. Fault injection stays per row — one
// faults.Hit(MatrixWorker) per row of the band — so chaos coverage is
// independent of the tile shape.
func ProfileDistMatrixCtx(ctx context.Context, profiles []*Profile, workers int) (*DistMatrix, error) {
	n := len(profiles)
	m := &DistMatrix{n: n, d: make([]float64, n*(n-1)/2)}
	if n < 2 {
		return m, nil
	}
	bands := (n - 1 + matrixRowBand - 1) / matrixRowBand
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > bands {
		workers = bands
	}
	fillBand := func(lo int) error {
		hi := lo + matrixRowBand
		if hi > n-1 {
			hi = n - 1
		}
		cur := lo
		err := guard.Run(func() error {
			for i := lo; i < hi; i++ {
				cur = i
				if err := faults.Hit(faults.MatrixWorker); err != nil {
					return err
				}
			}
			for jb := lo + 1; jb < n; jb += matrixColBlock {
				je := jb + matrixColBlock
				if je > n {
					je = n
				}
				// Rows of the band that have entries in this column
				// block: row i covers columns j > i.
				for i := lo; i < hi && i < je-1; i++ {
					j := i + 1
					if j < jb {
						j = jb
					}
					base := i * (2*n - i - 1) / 2
					pi := profiles[i]
					cur = i
					for ; j < je; j++ {
						m.d[base+j-i-1] = TDistProfiles(pi, profiles[j])
					}
				}
			}
			return nil
		})
		if err != nil {
			return wrapWorkerErr(err, fmt.Sprintf("core: distance-matrix row %d", cur))
		}
		return nil
	}
	if workers <= 1 {
		for lo := 0; lo < n-1; lo += matrixRowBand {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if err := fillBand(lo); err != nil {
				return nil, err
			}
		}
		return m, nil
	}
	var nextBand atomic.Int64
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				if err := ctx.Err(); err != nil {
					errs[w] = err
					return
				}
				b := int(nextBand.Add(1)) - 1
				if b >= bands {
					return
				}
				if err := fillBand(b * matrixRowBand); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := guard.First(errs); err != nil {
		return nil, err
	}
	return m, nil
}

// TDistMatrixParallel computes every pairwise cousin-based tree distance
// under the variant: mine once per tree into one shared symbol table,
// freeze each item set into a sorted Profile, then fill the upper
// triangle across workers with row-chunked work-stealing, each entry an
// allocation-free merge-join. The result is identical to calling
// TDist on every pair, only without the per-pair re-mining, and
// identical at any worker count — pinned by the differential tests.
// workers ≤ 0 selects GOMAXPROCS.
func TDistMatrixParallel(trees []*tree.Tree, v Variant, opts Options, workers int) *DistMatrix {
	return ProfileDistMatrix(BuildProfiles(trees, v, opts, workers), workers)
}

// TDistMatrixParallelCtx is TDistMatrixParallel under a context:
// cancellation is observed within one tree (profiling) or one row
// (matrix fill), and worker panics surface as errors.
func TDistMatrixParallelCtx(ctx context.Context, trees []*tree.Tree, v Variant, opts Options, workers int) (*DistMatrix, error) {
	profiles, err := BuildProfilesCtx(ctx, trees, v, opts, workers)
	if err != nil {
		return nil, err
	}
	return ProfileDistMatrixCtx(ctx, profiles, workers)
}

// wrapWorkerErr labels a worker failure with what it was doing, but
// passes bare context cancellations through unchanged — callers match
// those against ctx.Err() and gain nothing from a location label.
func wrapWorkerErr(err error, doing string) error {
	if err == context.Canceled || err == context.DeadlineExceeded {
		return err
	}
	return fmt.Errorf("%s: %w", doing, err)
}
