// Package serve turns a mined cousin-pair index into a long-running
// query service: a Backend loads a store file read-only at startup, a
// Server answers concurrent HTTP+JSON queries over it (pair support,
// frequent-pair listing, tree distance/similarity, index stats) through
// a sharded LRU result cache keyed on packed IKeys. The paper's mining
// pass is the expensive step; this package is the "index once, query
// forever" half of the split.
//
// Every query the server answers is differential-tested against the
// in-process library answer on the same loaded data — the server is a
// transport, never a second implementation of the semantics.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"treemine/internal/core"
	"treemine/internal/faults"
	"treemine/internal/store"
)

// Errors the backend maps to non-500 HTTP statuses.
var (
	// ErrUnknownTree reports a tree-distance query naming a tree the
	// index does not contain (HTTP 404).
	ErrUnknownTree = errors.New("serve: unknown tree")
	// ErrUnsupported reports a query the loaded file cannot answer —
	// e.g. tree distance against a file compacted from a shard, which
	// aggregates support without keeping per-tree item sets (HTTP 501).
	ErrUnsupported = errors.New("serve: query not supported by this backend")
)

// ctxCheckEvery is how many loop iterations a scan runs between request
// context checks; scans over the loaded index are the only per-request
// work proportional to index size.
const ctxCheckEvery = 4096

// Backend answers queries from one v4 file, memory-mapped or read into
// memory at open: support probes binary-search its record section,
// frequent listings walk its support-descending permutation, and tree
// distance and wildcard support read its per-tree section. A Mapped is
// immutable, so a Backend is safe for any number of concurrent readers
// with no locking.
type Backend struct {
	m *store.Mapped
}

// faultReader injects the serve/load failpoint into every read, so the
// chaos suite can simulate a mid-load I/O failure.
type faultReader struct{ r io.Reader }

func (fr faultReader) Read(p []byte) (int, error) {
	if err := faults.Hit(faults.ServeLoad); err != nil {
		return 0, err
	}
	return fr.r.Read(p)
}

// Open reads a v4 file (cousindex build or compact) into a backend.
// Any other input fails with store.ErrBadMagic: an older index or shard
// checkpoint is converted once, with `cousindex compact`. A file
// written from an index answers every endpoint; one compacted from a
// shard holds aggregate counts, not per-tree item sets, so tree
// distance and the distance form it was not mined with report
// ErrUnsupported. Open holds the whole image in memory — prefer
// OpenPath, which memory-maps it.
func Open(r io.Reader) (*Backend, error) {
	data, err := io.ReadAll(faultReader{r})
	if err != nil {
		return nil, fmt.Errorf("serve: read index: %w", err)
	}
	m, err := store.OpenMappedBytes(data)
	if err != nil {
		return nil, err
	}
	return &Backend{m: m}, nil
}

// OpenPath memory-maps the v4 file at path (store.OpenMapped: O(1)
// startup, zero-copy queries). Close the returned backend when done
// serving.
func OpenPath(path string) (*Backend, error) {
	// The mmap path does no incremental reads, so the serve/load
	// failpoint gets its one shot at the open.
	if err := faults.Hit(faults.ServeLoad); err != nil {
		return nil, err
	}
	m, err := store.OpenMapped(path)
	if err != nil {
		return nil, err
	}
	return &Backend{m: m}, nil
}

// Close releases the mapping (a no-op for a backend Open read into
// memory). No queries may be in flight or issued afterwards.
func (b *Backend) Close() error { return b.m.Close() }

// Trees returns the number of trees the loaded data covers.
func (b *Backend) Trees() int { return b.m.Trees() }

// Support returns the number of trees containing the label pair at
// distance d (DistWild: at any distance). Concrete distances read the
// file's aggregate counts; so does the wildcard on an IgnoreDist file,
// whose records are all wildcard aggregates. Otherwise the wildcard
// counts the trees whose per-tree items hold any of the pair's records,
// as core.SupportOf does over the item sets. A file without per-tree
// items cannot answer wildcard probes (a tree containing the pair at
// two distances would be double-counted), and an IgnoreDist file cannot
// answer concrete ones — both report ErrUnsupported.
func (b *Backend) Support(ctx context.Context, l1, l2 string, d core.Dist) (int, error) {
	opts := b.m.Options()
	switch {
	case d.IsWild() == opts.IgnoreDist:
		return int(b.m.Support(l1, l2, d)), nil
	case opts.IgnoreDist:
		return 0, fmt.Errorf("%w: shard was mined distance-insensitively (use dist=*)", ErrUnsupported)
	case !b.m.HasTrees():
		return 0, fmt.Errorf("%w: wildcard support is not derivable from a distance-keyed shard", ErrUnsupported)
	}
	lo, hi := b.m.Records(l1, l2, core.DistWild)
	n := 0
	for t := 0; t < b.m.Trees(); t++ {
		if t%ctxCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
		}
		if b.m.TreeOccur(t, lo, hi) > 0 {
			n++
		}
	}
	return n, nil
}

// Frequent returns the pairs with support ≥ minSup whose distance
// passes the maxDist filter, in the shared order (decreasing support,
// then key), truncated to limit when limit > 0. total counts the
// matches before truncation. A DistWild maxDist means no filter;
// wildcard-distance pairs (from IgnoreDist data) pass every filter,
// since they carry no concrete distance to test.
//
// It walks the file's support-descending permutation: the base record
// order is CompareKeys order, so a stable support sort over it is
// exactly the Finalize(1) total order. Supports along the walk are
// non-increasing, so the minsup cutoff ends the scan; pairs only
// materialize when listed.
func (b *Backend) Frequent(ctx context.Context, minSup int, maxDist core.Dist, limit int) (pairs []core.FrequentPair, total int, err error) {
	pairs = []core.FrequentPair{}
	for i, n := 0, b.m.Len(); i < n; i++ {
		if i%ctxCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, 0, err
			}
		}
		rec := b.m.PermAt(i)
		if b.m.SupportAt(rec) < int64(minSup) {
			break
		}
		if !maxDist.IsWild() {
			if d := b.m.DistAt(rec); !d.IsWild() && d > maxDist {
				continue
			}
		}
		total++
		if limit <= 0 || len(pairs) < limit {
			pairs = append(pairs, b.m.PairAt(rec))
		}
	}
	return pairs, total, nil
}

// resolve maps a tree name to its index (the first of duplicates).
func (b *Backend) resolve(name string) (int, error) {
	t, ok := b.m.TreeByName(name)
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownTree, name)
	}
	return t, nil
}

// runBufs holds the two posting runs one TDist request reads its trees
// into; pooled, so a warm backend answers tdist without allocating.
type runBufs struct{ a, b []core.Posting }

var runPool = sync.Pool{New: func() any { return new(runBufs) }}

// TDist computes the paper's cousin-based tree distance (Eq. 6, under
// the requested variant) and similarity score (Eq. 4) between two named
// trees, on the item sets mined at index build time — the library's
// core.TDistItems and core.SimItems answers. A file without per-tree
// items reports ErrUnsupported.
//
// On a packed file each tree's items come off the mapped per-tree
// section as a posting run already sorted by key (records are in
// rank-coded IKey order, a tree's items in record order): σ runs on the
// two VariantDistOccur runs, which are then projected in place to the
// variant for tdist. Nothing is materialized. A generic file's trees go
// through the item-set forms.
func (b *Backend) TDist(t1, t2 string, v core.Variant) (tdist, sim float64, err error) {
	if !b.m.HasTrees() {
		return 0, 0, fmt.Errorf("%w: tree distance needs per-tree item sets (serve an index, not a shard)", ErrUnsupported)
	}
	i, err := b.resolve(t1)
	if err != nil {
		return 0, 0, err
	}
	j, err := b.resolve(t2)
	if err != nil {
		return 0, 0, err
	}
	if b.m.Generic() {
		s1, s2 := b.treeItems(i), b.treeItems(j)
		return core.TDistItems(s1, s2, v), core.SimItems(s1, s2), nil
	}
	bufs := runPool.Get().(*runBufs)
	defer runPool.Put(bufs)
	bufs.a, bufs.b = b.treeRun(i, bufs.a[:0]), b.treeRun(j, bufs.b[:0])
	p, q := core.RunProfile(bufs.a), core.RunProfile(bufs.b)
	sim = core.SimProfiles(&p, &q)
	p.Project(v)
	q.Project(v)
	return core.TDistProfiles(&p, &q), sim, nil
}

// treeRun appends packed tree t's items to run as postings in key order.
func (b *Backend) treeRun(t int, run []core.Posting) []core.Posting {
	b.m.TreeRecords(t, func(rec, occur int) {
		run = append(run, core.Posting{Key: b.m.KeyAt(rec), N: int64(occur)})
	})
	return run
}

// treeItems materializes generic tree t's item set.
func (b *Backend) treeItems(t int) core.ItemSet {
	items := core.ItemSet{}
	b.m.TreeRecords(t, func(rec, occur int) { items[b.m.PairAt(rec).Key] = occur })
	return items
}

// Stats describes the loaded data; every field is a pure function of
// the store file, so stats responses are byte-stable across runs.
//
// The supports_* fields advertise which query shapes this backend can
// answer, so clients discover the limits of a file without per-tree
// items (no tree distance; one support keying, concrete or wildcard)
// from one stats call instead of probing endpoints for 501s.
type Stats struct {
	Trees      int       `json:"trees"`
	Labels     int       `json:"labels"`
	Pairs      int       `json:"pairs"`
	Items      int       `json:"items"`
	MaxDist    core.Dist `json:"maxdist"`
	MinOccur   int       `json:"minoccur"`
	IgnoreDist bool      `json:"ignoredist"`
	// SupportsTDist: /v1/tdist works (files with per-tree item sets).
	SupportsTDist bool `json:"supports_tdist"`
	// SupportsConcreteDist: /v1/support with a concrete dist works.
	SupportsConcreteDist bool `json:"supports_concrete_dist"`
	// SupportsWildcard: /v1/support with dist=* (or omitted) works.
	SupportsWildcard bool `json:"supports_wildcard"`
}

// Stats returns the backend's description: tree and label counts, the
// number of distinct support entries (Pairs), the total per-tree items
// (Items, 0 without per-tree items), the mining parameters, and the
// capabilities Support and TDist derive from the same file properties.
func (b *Backend) Stats() Stats {
	opts := b.m.Options()
	return Stats{
		Trees:                b.m.Trees(),
		Labels:               b.m.NumSymbols(),
		Pairs:                b.m.Len(),
		Items:                int(b.m.Items()),
		MaxDist:              opts.MaxDist,
		MinOccur:             opts.MinOccur,
		IgnoreDist:           opts.IgnoreDist,
		SupportsTDist:        b.m.HasTrees(),
		SupportsConcreteDist: !opts.IgnoreDist,
		SupportsWildcard:     opts.IgnoreDist || b.m.HasTrees(),
	}
}

// supportCacheKey packs a support probe into a cache key: the pair's
// IKey over the file's label ranks. Probes naming labels the index
// never saw, or distances beyond the packed range, are not cacheable
// (they also cannot collide with any cached answer, which is the
// invariant that matters).
func (b *Backend) supportCacheKey(l1, l2 string, d core.Dist) (CacheKey, bool) {
	if d > core.MaxPackedDist {
		return CacheKey{}, false
	}
	a, ok1 := b.m.LookupSymbol(l1)
	bb, ok2 := b.m.LookupSymbol(l2)
	if !ok1 || !ok2 {
		return CacheKey{}, false
	}
	return CacheKey{Kind: kindSupport, K1: uint64(core.NewIKey(a, bb, d))}, true
}

// tdistCacheKey packs a tree-distance query: the two tree indices (in
// request order, matching the response echo) and the variant.
func (b *Backend) tdistCacheKey(t1, t2 string, v core.Variant) (CacheKey, bool) {
	i, ok1 := b.m.TreeByName(t1)
	j, ok2 := b.m.TreeByName(t2)
	if !ok1 || !ok2 {
		return CacheKey{}, false
	}
	return CacheKey{
		Kind: kindTDist,
		K1:   uint64(uint32(i))<<32 | uint64(uint32(j)),
		K2:   uint64(v),
	}, true
}

// frequentCacheKey packs a frequent listing query. Parse bounds keep
// every component within its packed width.
func frequentCacheKey(q FrequentQuery) CacheKey {
	return CacheKey{
		Kind: kindFrequent,
		K1:   uint64(q.MinSup),
		K2:   uint64(uint32(q.MaxDist+1))<<32 | uint64(uint32(q.Limit)),
	}
}
