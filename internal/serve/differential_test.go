package serve

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"treemine/internal/core"
	"treemine/internal/newick"
	"treemine/internal/store"
	"treemine/internal/tree"
	"treemine/internal/treegen"
)

// The differential harness: the server may never disagree with the
// library. Randomized query mixes run against a live httptest server,
// and every response body is compared byte-for-byte with the answer
// computed by calling the library directly on the same loaded data —
// once on the cache-miss path and once on the cache-hit path.

// diffLabels mixes plain taxa with labels that stress parsing and
// escaping: unicode, quotes, spaces, commas, ampersands.
func diffLabels() []string {
	return append(treegen.Alphabet(10),
		"β-taxon", `qu"ote`, "sp ace", "comma,label", "amp&ers=and", "ünïcødé")
}

// diffForest builds a deterministic random forest over diffLabels.
func diffForest(t *testing.T, seed int64, n int) ([]*tree.Tree, []string) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	labels := diffLabels()
	trees := make([]*tree.Tree, n)
	names := make([]string, n)
	for i := range trees {
		trees[i] = treegen.Uniform(rng, 3+rng.Intn(18), labels)
		names[i] = fmt.Sprintf("T%02d", i)
	}
	return trees, names
}

// expect marshals the library's answer through the same response struct
// the server uses, so a comparison failure isolates a semantic
// disagreement, not a formatting one.
func expect(t *testing.T, v any) string {
	t.Helper()
	body, err := marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// getTwice fires the same query twice — cache miss then (for cacheable
// queries) cache hit — and requires both bodies to match want exactly.
func getTwice(t *testing.T, ts *httptest.Server, path string, wantStatus int, want string) {
	t.Helper()
	for pass, label := range []string{"first (miss)", "second (hit)"} {
		st, body := get(t, ts, path)
		if st != wantStatus {
			t.Fatalf("%s: %s pass: status %d, want %d (body %s)", path, label, st, wantStatus, body)
		}
		if want != "" && body != want {
			t.Fatalf("%s: %s pass: server disagrees with library\n--- server ---\n%s--- library ---\n%s",
				path, label, body, want)
		}
		_ = pass
	}
}

func TestServerDifferentialIndex(t *testing.T) {
	trees, names := diffForest(t, 7, 24)
	opts := core.Options{MaxDist: core.D(4), MinOccur: 1}
	ix, err := store.Build(trees, names, opts)
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, openBackend(t, ix), Config{CacheEntries: 256})

	labels := diffLabels()
	sets := indexSets(ix)
	rng := rand.New(rand.NewSource(99))
	randLabel := func() string {
		if rng.Intn(10) == 0 {
			return fmt.Sprintf("unknown-%d", rng.Intn(5)) // label the index never saw
		}
		return labels[rng.Intn(len(labels))]
	}
	dists := []core.Dist{0, 1, 2, 3, 4, 7, core.DistWild}

	for i := 0; i < 400; i++ {
		switch rng.Intn(4) {
		case 0: // pair support, exact and wildcard
			l1, l2, d := randLabel(), randLabel(), dists[rng.Intn(len(dists))]
			k := core.NewKey(l1, l2, d)
			want := expect(t, supportResponse{
				L1: k.A, L2: k.B, Dist: k.D,
				Support: indexSupport(ix, l1, l2, d), // the library answer
				Trees:   ix.NumTrees(),
			})
			q := url.Values{"l1": {l1}, "l2": {l2}, "dist": {d.String()}}
			getTwice(t, ts, "/v1/support?"+q.Encode(), 200, want)

		case 1: // frequent listing with minsup/maxdist/limit filters
			minsup := 1 + rng.Intn(6)
			maxd := dists[rng.Intn(len(dists))]
			limit := rng.Intn(12) // 0 = unlimited
			lib := indexFrequent(ix, minsup)
			matched := []core.FrequentPair{}
			for _, p := range lib {
				if !maxd.IsWild() && !p.Key.D.IsWild() && p.Key.D > maxd {
					continue
				}
				matched = append(matched, p)
			}
			total := len(matched)
			if limit > 0 && len(matched) > limit {
				matched = matched[:limit]
			}
			resp := frequentResponse{
				MinSup: minsup, MaxDist: maxd, Trees: ix.NumTrees(),
				Count: total, Pairs: make([]pairJSON, len(matched)),
			}
			for j, p := range matched {
				resp.Pairs[j] = pairJSON{L1: p.Key.A, L2: p.Key.B, Dist: p.Key.D, Support: p.Support}
			}
			q := url.Values{
				"minsup":  {fmt.Sprint(minsup)},
				"maxdist": {maxd.String()},
			}
			if limit > 0 {
				q.Set("limit", fmt.Sprint(limit))
			}
			getTwice(t, ts, "/v1/frequent?"+q.Encode(), 200, expect(t, resp))

		case 2: // tree distance + similarity between named trees
			i1, i2 := rng.Intn(len(trees)), rng.Intn(len(trees))
			t1, t2 := names[i1], names[i2]
			variants := []struct {
				param string
				v     core.Variant
			}{
				{"label", core.VariantLabel}, {"dist", core.VariantDist},
				{"occ", core.VariantOccur}, {"distocc", core.VariantDistOccur},
			}
			vc := variants[rng.Intn(len(variants))]
			if rng.Intn(8) == 0 { // sometimes an unknown tree: 404
				q := url.Values{"t1": {t1}, "t2": {"no-such-tree"}, "variant": {vc.param}}
				getTwice(t, ts, "/v1/tdist?"+q.Encode(), 404, "")
				continue
			}
			want := expect(t, tdistResponse{
				T1: t1, T2: t2, Variant: vc.v.String(),
				TDist: core.TDistItems(sets[i1], sets[i2], vc.v), // the library answers
				Sim:   core.SimItems(sets[i1], sets[i2]),
			})
			q := url.Values{"t1": {t1}, "t2": {t2}, "variant": {vc.param}}
			getTwice(t, ts, "/v1/tdist?"+q.Encode(), 200, want)

		case 3: // index stats, computed independently from the index
			distinct := map[string]struct{}{}
			items := 0
			for _, e := range ix.Entries {
				items += len(e.Items)
				for k := range e.Items {
					distinct[k.A] = struct{}{}
					distinct[k.B] = struct{}{}
				}
			}
			// Stats answers aren't cached and stats requests don't touch
			// the cache, so the counter snapshot taken here is exactly what
			// both fetches must report.
			want := expect(t, statsResponse{
				Stats: Stats{
					Backend: "index", Trees: ix.NumTrees(), Labels: len(distinct),
					Pairs: len(indexFrequent(ix, 1)), Items: items,
					MaxDist: opts.MaxDist, MinOccur: opts.MinOccur,
					// An index backend answers every query shape.
					SupportsTDist: true, SupportsConcreteDist: true, SupportsWildcard: true,
				},
				Cache: s.CacheStats(),
			})
			getTwice(t, ts, "/v1/stats", 200, want)
		}
	}
	if st := s.CacheStats(); st.Hits == 0 {
		t.Error("differential mix never hit the cache")
	}
}

// TestServerDifferentialShard: a shard-backed server must agree with
// the index built over the same forest wherever their semantics
// coincide (concrete-distance support at minoccur 1), and with the
// shard's own Finalize for frequent listings.
func TestServerDifferentialShard(t *testing.T) {
	trees, names := diffForest(t, 21, 20)
	opts := core.Options{MaxDist: core.D(3), MinOccur: 1}
	fopts := core.ForestOptions{Options: opts, MinSup: 2}

	sh := core.NewSupportShard(fopts)
	for _, tr := range trees {
		sh.AddTree(tr)
	}
	var buf bytes.Buffer
	if err := store.SaveShard(&buf, sh); err != nil {
		t.Fatal(err)
	}
	b, err := Open(&buf)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, b, Config{CacheEntries: 256})

	ix, err := store.Build(trees, names, opts)
	if err != nil {
		t.Fatal(err)
	}

	labels := diffLabels()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 150; i++ {
		if rng.Intn(2) == 0 {
			l1, l2 := labels[rng.Intn(len(labels))], labels[rng.Intn(len(labels))]
			d := core.Dist(rng.Intn(4))
			k := core.NewKey(l1, l2, d)
			want := expect(t, supportResponse{
				L1: k.A, L2: k.B, Dist: k.D,
				Support: indexSupport(ix, l1, l2, d), // independent library path
				Trees:   len(trees),
			})
			q := url.Values{"l1": {l1}, "l2": {l2}, "dist": {d.String()}}
			getTwice(t, ts, "/v1/support?"+q.Encode(), 200, want)
		} else {
			minsup := 1 + rng.Intn(5)
			lib := sh.Finalize(minsup)
			resp := frequentResponse{
				MinSup: minsup, MaxDist: core.DistWild, Trees: len(trees),
				Count: len(lib), Pairs: make([]pairJSON, len(lib)),
			}
			for j, p := range lib {
				resp.Pairs[j] = pairJSON{L1: p.Key.A, L2: p.Key.B, Dist: p.Key.D, Support: p.Support}
			}
			q := url.Values{"minsup": {fmt.Sprint(minsup)}}
			getTwice(t, ts, "/v1/frequent?"+q.Encode(), 200, expect(t, resp))
		}
	}

	// Outside the shard's semantics: clean 501s, never wrong numbers.
	getTwice(t, ts, "/v1/support?l1=a&l2=b", 501, "")
	getTwice(t, ts, "/v1/tdist?t1=T00&t2=T01", 501, "")
}

// deepChainForest appends to a diffForest two-armed chain trees whose
// leaf pairs sit at cousin distances well past MaxPackedDist, so the
// forest is guaranteed to mine items a packed IKey cannot carry.
func deepChainForest(t *testing.T, seed int64, n int) []*tree.Tree {
	t.Helper()
	trees, _ := diffForest(t, seed, n)
	nest := func(label string, depth int) string {
		return strings.Repeat("(", depth) + label + strings.Repeat(")", depth)
	}
	labels := diffLabels()
	var src strings.Builder
	for i := 0; i < 4; i++ {
		l1, l2 := labels[i*2%len(labels)], labels[(i*2+1)%len(labels)]
		depth := 9 + i // cousin distance 8..11 = D(16)..D(22), all > MaxPackedDist
		fmt.Fprintf(&src, "(%s,%s);\n", nest(l1, depth), nest(l2, depth))
	}
	chains, err := newick.ParseAll(strings.NewReader(src.String()))
	if err != nil {
		t.Fatal(err)
	}
	return append(trees, chains...)
}

// TestServerDifferentialShardGeneric: a shard mined past MaxPackedDist
// runs in core's generic string-keyed mode, whose distances do not fit
// the packed IKey's 4-bit field (NewIKey(a,b,15) == NewIKey(a,b+1,
// DistWild)) — repacking such a shard used to silently merge counts of
// distinct pairs. Every concrete-distance probe, including distances
// past 7 and past the shard's own MaxDist, must match the index built
// over the same forest; frequent listings must match the shard's own
// Finalize.
func TestServerDifferentialShardGeneric(t *testing.T) {
	trees := deepChainForest(t, 63, 16)
	opts := core.Options{MaxDist: core.MaxPackedDist + 8, MinOccur: 1}
	fopts := core.ForestOptions{Options: opts, MinSup: 2}

	sh := core.NewSupportShard(fopts)
	for _, tr := range trees {
		sh.AddTree(tr)
	}
	var buf bytes.Buffer
	if err := store.SaveShard(&buf, sh); err != nil {
		t.Fatal(err)
	}
	b, err := Open(&buf)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, b, Config{CacheEntries: 256})

	ix, err := store.Build(trees, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The region under test must actually exist in the mined data.
	deep := 0
	for _, p := range indexFrequent(ix, 1) {
		if p.Key.D > core.MaxPackedDist {
			deep++
		}
	}
	if deep == 0 {
		t.Fatal("fixture mined no items past MaxPackedDist; the overflow region is untested")
	}

	labels := diffLabels()
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 200; i++ {
		if rng.Intn(3) > 0 {
			l1, l2 := labels[rng.Intn(len(labels))], labels[rng.Intn(len(labels))]
			// Bias toward the overflow region: distances past
			// MaxPackedDist, including past the shard's own MaxDist.
			d := core.Dist(rng.Intn(int(opts.MaxDist) + 6))
			if rng.Intn(2) == 0 {
				d += core.MaxPackedDist
			}
			k := core.NewKey(l1, l2, d)
			want := expect(t, supportResponse{
				L1: k.A, L2: k.B, Dist: k.D,
				Support: indexSupport(ix, l1, l2, d), // independent library path
				Trees:   len(trees),
			})
			q := url.Values{"l1": {l1}, "l2": {l2}, "dist": {d.String()}}
			getTwice(t, ts, "/v1/support?"+q.Encode(), 200, want)
		} else {
			minsup := 1 + rng.Intn(4)
			lib := sh.Finalize(minsup)
			resp := frequentResponse{
				MinSup: minsup, MaxDist: core.DistWild, Trees: len(trees),
				Count: len(lib), Pairs: make([]pairJSON, len(lib)),
			}
			for j, p := range lib {
				resp.Pairs[j] = pairJSON{L1: p.Key.A, L2: p.Key.B, Dist: p.Key.D, Support: p.Support}
			}
			q := url.Values{"minsup": {fmt.Sprint(minsup)}}
			getTwice(t, ts, "/v1/frequent?"+q.Encode(), 200, expect(t, resp))
		}
	}
}

// TestServerDifferentialShardIgnoreDist: an IgnoreDist shard answers
// wildcard probes, and they must equal the index's wildcard support
// (trees containing the pair at any distance).
func TestServerDifferentialShardIgnoreDist(t *testing.T) {
	trees, names := diffForest(t, 42, 16)
	opts := core.Options{MaxDist: core.D(3), MinOccur: 1}
	fopts := core.ForestOptions{Options: opts, MinSup: 2, IgnoreDist: true}

	sh := core.NewSupportShard(fopts)
	for _, tr := range trees {
		sh.AddTree(tr)
	}
	var buf bytes.Buffer
	if err := store.SaveShard(&buf, sh); err != nil {
		t.Fatal(err)
	}
	b, err := Open(&buf)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, b, Config{CacheEntries: 64})

	ix, err := store.Build(trees, names, opts)
	if err != nil {
		t.Fatal(err)
	}
	labels := diffLabels()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 80; i++ {
		l1, l2 := labels[rng.Intn(len(labels))], labels[rng.Intn(len(labels))]
		k := core.NewKey(l1, l2, core.DistWild)
		want := expect(t, supportResponse{
			L1: k.A, L2: k.B, Dist: core.DistWild,
			Support: indexSupport(ix, l1, l2, core.DistWild),
			Trees:   len(trees),
		})
		q := url.Values{"l1": {l1}, "l2": {l2}}
		getTwice(t, ts, "/v1/support?"+q.Encode(), 200, want)
	}
	getTwice(t, ts, "/v1/support?l1=a&l2=b&dist=0", 501, "")
}
