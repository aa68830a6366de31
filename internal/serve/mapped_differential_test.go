package serve

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"testing"

	"treemine/internal/core"
	"treemine/internal/store"
	"treemine/internal/tree"
)

// The mapped differential harness: a server over a v4 file on disk,
// memory-mapped the way the daemon opens it, must answer every /v1/*
// endpoint byte-for-byte as the oracle answers on the trees the file
// was compacted from (oracle_test.go).
// Each query runs twice, so the cache-miss and cache-hit paths are both
// compared, and the stats body carries the live cache counters.

// openMapped compacts a source to a v4 file with compact and serves it
// through OpenPath, the daemon's route.
func openMapped(t *testing.T, compact func(path string) error) (*Server, *httptest.Server) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "idx.v4")
	if err := compact(path); err != nil {
		t.Fatal(err)
	}
	b, err := OpenPath(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return newTestServer(t, b, Config{CacheEntries: 256})
}

// queryMix drives a randomized endpoint mix through the server
// and holds every answer to the oracle's: concrete support across and
// past the mined range (past MaxPackedDist too), wildcard support,
// unknown labels, frequent listings with limits and maxdist filters,
// stats with live cache counters, and tdist in all four variants,
// sometimes naming an unknown tree.
func queryMix(t *testing.T, seed int64, names []string, maxDist core.Dist, s *Server, ts *httptest.Server, o expected) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	labels := diffLabels()
	randLabel := func() string {
		if rng.Intn(8) == 0 {
			return fmt.Sprintf("unknown-%d", rng.Intn(4))
		}
		return labels[rng.Intn(len(labels))]
	}
	variants := []core.Variant{core.VariantLabel, core.VariantDist, core.VariantOccur, core.VariantDistOccur}
	params := map[core.Variant]string{
		core.VariantLabel: "label", core.VariantDist: "dist",
		core.VariantOccur: "occ", core.VariantDistOccur: "distocc",
	}
	for i := 0; i < 300; i++ {
		switch rng.Intn(6) {
		case 0, 1: // support: concrete or wildcard
			l1, l2 := randLabel(), randLabel()
			d := core.Dist(rng.Intn(int(maxDist) + 8))
			if rng.Intn(4) == 0 {
				d = core.DistWild
			}
			q := url.Values{"l1": {l1}, "l2": {l2}, "dist": {d.String()}}
			n, ok := o.support(l1, l2, d)
			if !ok {
				getTwice(t, ts, "/v1/support?"+q.Encode(), 501, "")
				continue
			}
			k := core.NewKey(l1, l2, d)
			getTwice(t, ts, "/v1/support?"+q.Encode(), 200, expect(t, supportResponse{
				L1: k.A, L2: k.B, Dist: k.D, Support: n, Trees: o.stats.Trees,
			}))
		case 2: // frequent: minsup sweep with filters and limits
			minsup, maxd, limit := 1+rng.Intn(6), core.DistWild, 0
			q := url.Values{"minsup": {fmt.Sprint(minsup)}}
			if rng.Intn(2) == 0 {
				maxd = core.Dist(rng.Intn(int(maxDist) + 2))
				q.Set("maxdist", maxd.String())
			}
			if rng.Intn(2) == 0 {
				limit = 1 + rng.Intn(20)
				q.Set("limit", fmt.Sprint(limit))
			}
			resp := frequentResponse{MinSup: minsup, MaxDist: maxd, Trees: o.stats.Trees, Pairs: []pairJSON{}}
			for _, p := range o.frequent(minsup) {
				if !maxd.IsWild() && !p.Key.D.IsWild() && p.Key.D > maxd {
					continue
				}
				resp.Count++
				if limit == 0 || len(resp.Pairs) < limit {
					resp.Pairs = append(resp.Pairs, pairJSON{L1: p.Key.A, L2: p.Key.B, Dist: p.Key.D, Support: p.Support})
				}
			}
			getTwice(t, ts, "/v1/frequent?"+q.Encode(), 200, expect(t, resp))
		case 3, 4: // tdist, every variant
			t1, t2 := names[rng.Intn(len(names))], names[rng.Intn(len(names))]
			if rng.Intn(8) == 0 {
				t2 = "no-such-tree"
			}
			v := variants[rng.Intn(len(variants))]
			q := url.Values{"t1": {t1}, "t2": {t2}, "variant": {params[v]}}
			td, sim, status := o.tdist(t1, t2, v)
			want := ""
			if status == 200 {
				want = expect(t, tdistResponse{T1: t1, T2: t2, Variant: v.String(), TDist: td, Sim: sim})
			}
			getTwice(t, ts, "/v1/tdist?"+q.Encode(), status, want)
		case 5: // stats, cache counters included
			getTwice(t, ts, "/v1/stats", 200, expect(t, statsResponse{Stats: o.stats, Cache: s.CacheStats()}))
		}
	}
	if st := s.CacheStats(); st.Hits == 0 {
		t.Error("mapped mix never hit the cache")
	}
}

// TestMappedDifferentialShard: packed-mode shard (MaxDist within
// MaxPackedDist) compacted to v4.
func TestMappedDifferentialShard(t *testing.T) {
	trees, names := diffForest(t, 41, 20)
	maxD := core.D(3)
	opts := core.ForestOptions{Options: core.Options{MaxDist: maxD, MinOccur: 1}, MinSup: 2}
	s, ts := openMapped(t, func(path string) error { return store.CompactShardV4(path, mineShard(trees, opts)) })
	queryMix(t, 42, names, maxD, s, ts, naiveAnswers(trees, nil, opts))
}

// TestMappedDifferentialShardGeneric: a shard mined past MaxPackedDist
// compacts into the string-keyed v4 section; its probes — including
// distances past 7 and past the shard's own MaxDist — must agree with
// the shard everywhere.
func TestMappedDifferentialShardGeneric(t *testing.T) {
	trees := deepChainForest(t, 43, 14)
	maxD := core.MaxPackedDist + 8
	opts := core.ForestOptions{Options: core.Options{MaxDist: maxD, MinOccur: 1}, MinSup: 2}
	o := naiveAnswers(trees, nil, opts)
	requireDeep(t, o.frequent(1))
	s, ts := openMapped(t, func(path string) error { return store.CompactShardV4(path, mineShard(trees, opts)) })
	queryMix(t, 44, []string{"T00", "T01"}, maxD, s, ts, o)
}

// TestMappedDifferentialShardIgnoreDist: distance-insensitive mining
// keys every pair at DistWild; wildcard probes answer and concrete ones
// 501.
func TestMappedDifferentialShardIgnoreDist(t *testing.T) {
	trees, names := diffForest(t, 45, 18)
	maxD := core.D(4)
	opts := core.ForestOptions{Options: core.Options{MaxDist: maxD, MinOccur: 1}, MinSup: 2, IgnoreDist: true}
	s, ts := openMapped(t, func(path string) error { return store.CompactShardV4(path, mineShard(trees, opts)) })
	queryMix(t, 46, names, maxD, s, ts, naiveAnswers(trees, nil, opts))
}

// TestMappedDifferentialIndex: an index written as v4 keeps its
// per-tree item sets, so the mapped file answers every query the index
// does — wildcard support and tree distance included — in both keying
// modes.
func TestMappedDifferentialIndex(t *testing.T) {
	t.Run("packed", func(t *testing.T) {
		trees, names := diffForest(t, 47, 22)
		opts := core.ForestOptions{Options: core.Options{MaxDist: core.D(4), MinOccur: 1}, MinSup: 1}
		s, ts := openMapped(t, func(path string) error { return compactIndex(path, trees, names, opts.Options) })
		queryMix(t, 48, names, opts.MaxDist, s, ts, naiveAnswers(trees, names, opts))
	})
	t.Run("generic", func(t *testing.T) {
		trees := deepChainForest(t, 49, 16)
		names := make([]string, len(trees))
		for i := range names {
			names[i] = fmt.Sprintf("tree_%d", i+1)
		}
		opts := core.ForestOptions{Options: core.Options{MaxDist: core.MaxPackedDist + 8, MinOccur: 1}, MinSup: 1}
		o := naiveAnswers(trees, names, opts)
		requireDeep(t, o.frequent(1))
		s, ts := openMapped(t, func(path string) error { return compactIndex(path, trees, names, opts.Options) })
		queryMix(t, 50, names, opts.MaxDist, s, ts, o)
	})
}

// mineShard folds the trees into a fresh shard.
func mineShard(trees []*tree.Tree, opts core.ForestOptions) *core.SupportShard {
	sh := core.NewSupportShard(opts)
	for _, tr := range trees {
		sh.AddTree(tr)
	}
	return sh
}

// compactIndex builds an index over the named trees and compacts it to
// a v4 file at path.
func compactIndex(path string, trees []*tree.Tree, names []string, opts core.Options) error {
	ix, err := store.Build(trees, names, opts)
	if err != nil {
		return err
	}
	return store.CompactIndexV4(path, ix)
}

// requireDeep fails unless the fixture mined items past MaxPackedDist,
// the region the generic section exists for.
func requireDeep(t *testing.T, pairs []core.FrequentPair) {
	t.Helper()
	for _, p := range pairs {
		if p.Key.D > core.MaxPackedDist {
			return
		}
	}
	t.Fatal("fixture mined no items past MaxPackedDist; the generic section is untested")
}
