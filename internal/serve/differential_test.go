package serve

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"

	"treemine/internal/core"
	"treemine/internal/newick"
	"treemine/internal/store"
	"treemine/internal/tree"
	"treemine/internal/treegen"
)

// The differential harness: the server may never disagree with the
// oracle. Randomized query mixes run against a live httptest server,
// and every response body is compared byte-for-byte with the answer
// the oracle computes from the same source trees (oracle_test.go) —
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
			t.Fatalf("%s: %s pass: server disagrees with the oracle\n--- server ---\n%s--- oracle ---\n%s",
				path, label, body, want)
		}
		_ = pass
	}
}

// TestServerDifferentialIndex: a server over an index's v4 file, read
// into memory by Open, answers the query mix
// (mapped_differential_test.go) as the oracle does.
func TestServerDifferentialIndex(t *testing.T) {
	trees, names := diffForest(t, 7, 24)
	opts := core.Options{MaxDist: core.D(4), MinOccur: 1}
	ix, err := store.Build(trees, names, opts)
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, openBackend(t, ix), Config{CacheEntries: 256})
	o := naiveAnswers(trees, names, core.ForestOptions{Options: opts, MinSup: 1})
	queryMix(t, 99, names, opts.MaxDist, s, ts, o)
}

// openShard serves the v4 file of the trees' shard, read into memory by
// Open.
func openShard(t *testing.T, trees []*tree.Tree, opts core.ForestOptions) (*Server, *httptest.Server) {
	t.Helper()
	b := openV4(t, func(path string) error { return store.CompactShardV4(path, mineShard(trees, opts)) })
	return newTestServer(t, b, Config{CacheEntries: 256})
}

// TestServerDifferentialShard: a shard-backed server answers
// concrete-distance support and frequent listings as the oracle does,
// and wildcard support and tdist with clean 501s, never numbers.
func TestServerDifferentialShard(t *testing.T) {
	trees, names := diffForest(t, 21, 20)
	opts := core.ForestOptions{Options: core.Options{MaxDist: core.D(3), MinOccur: 1}, MinSup: 2}
	s, ts := openShard(t, trees, opts)
	o := naiveAnswers(trees, nil, opts)
	queryMix(t, 5, names, opts.MaxDist, s, ts, o)
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
// past 7 and past the shard's own MaxDist, must match the oracle, and
// so must frequent listings.
func TestServerDifferentialShardGeneric(t *testing.T) {
	trees := deepChainForest(t, 63, 16)
	opts := core.ForestOptions{Options: core.Options{MaxDist: core.MaxPackedDist + 8, MinOccur: 1}, MinSup: 2}
	s, ts := openShard(t, trees, opts)
	o := naiveAnswers(trees, nil, opts)
	requireDeep(t, o.frequent(1))
	queryMix(t, 17, []string{"T00", "T01"}, opts.MaxDist, s, ts, o)
}

// TestServerDifferentialShardIgnoreDist: an IgnoreDist shard answers
// wildcard probes, and they must equal the oracle's count of trees
// containing the pair at any distance; concrete ones answer 501.
func TestServerDifferentialShardIgnoreDist(t *testing.T) {
	trees, names := diffForest(t, 42, 16)
	opts := core.ForestOptions{Options: core.Options{MaxDist: core.D(3), MinOccur: 1}, MinSup: 2, IgnoreDist: true}
	s, ts := openShard(t, trees, opts)
	o := naiveAnswers(trees, nil, opts)
	queryMix(t, 11, names, opts.MaxDist, s, ts, o)
}
