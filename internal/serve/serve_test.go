package serve

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"treemine/internal/core"
	"treemine/internal/newick"
	"treemine/internal/store"
	"treemine/internal/tree"
)

// fixtureForest is the 4-tree gymnosperm forest the CLI golden tests
// use; every deterministic serve test is pinned to it.
const fixtureForest = `
((Gnetum,Welwitschia),(Ephedra,Ginkgoales));
((Gnetum,Welwitschia),Ephedra,(Pinaceae,Ginkgoales));
(((Gnetum,Welwitschia),Ephedra),(Angiosperms,Cycadales));
((Gnetum,Welwitschia),(Ephedra,(Pinaceae,Conifers2)));
`

func fixtureTrees(t testing.TB) []*tree.Tree {
	t.Helper()
	trees, err := newick.ParseAll(strings.NewReader(fixtureForest))
	if err != nil {
		t.Fatal(err)
	}
	return trees
}

func fixtureOptions() core.Options {
	return core.Options{MaxDist: core.D(3), MinOccur: 1} // the paper's maxdist 1.5
}

// fixtureIndex builds the index every deterministic test serves.
func fixtureIndex(t testing.TB) *store.Index {
	t.Helper()
	ix, err := store.Build(fixtureTrees(t), nil, fixtureOptions())
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// openBackend round-trips the index through Save and Open, so every
// test exercises the load path the daemon uses.
func openBackend(t testing.TB, ix *store.Index) *Backend {
	t.Helper()
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	b, err := Open(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// fixtureShard mines the fixture forest into a v3 shard and round-trips
// it through SaveShard and Open.
func fixtureShard(t testing.TB, ignoreDist bool) *Backend {
	t.Helper()
	sh := core.NewSupportShard(core.ForestOptions{Options: fixtureOptions(), MinSup: 2, IgnoreDist: ignoreDist})
	for _, tr := range fixtureTrees(t) {
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
	return b
}

// get fires one GET and returns status and body.
func get(t testing.TB, ts *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func newTestServer(t testing.TB, b *Backend, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(b, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func TestOpenDetectsFormats(t *testing.T) {
	if b := openBackend(t, fixtureIndex(t)); b.Kind() != "index" {
		t.Errorf("index file loaded as %q", b.Kind())
	}
	if b := fixtureShard(t, false); b.Kind() != "shard" {
		t.Errorf("shard file loaded as %q", b.Kind())
	}
	if _, err := Open(strings.NewReader("not an index at all")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Open(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := Open(strings.NewReader("TREEMINEIDX3 but torn")); err == nil {
		t.Error("torn shard accepted")
	}
}

// TestSupportCanonicalEcho: the pair echoes in canonical order, so the
// two parameter orders produce byte-identical bodies — and the second
// request is a cache hit on the first's packed IKey.
func TestSupportCanonicalEcho(t *testing.T) {
	s, ts := newTestServer(t, openBackend(t, fixtureIndex(t)), Config{})
	st1, b1 := get(t, ts, "/v1/support?l1=Welwitschia&l2=Gnetum&dist=0")
	st2, b2 := get(t, ts, "/v1/support?l1=Gnetum&l2=Welwitschia&dist=0")
	if st1 != http.StatusOK || st2 != http.StatusOK {
		t.Fatalf("statuses %d, %d", st1, st2)
	}
	if b1 != b2 {
		t.Errorf("parameter order changed the body:\n%s%s", b1, b2)
	}
	if hits := s.CacheStats().Hits; hits != 1 {
		t.Errorf("second probe should hit the cache once, got %d hits", hits)
	}
	if !strings.Contains(b1, `"support":4`) {
		t.Errorf("Gnetum/Welwitschia are siblings in all 4 trees, got %s", b1)
	}
}

// TestBackendReadOnly: queries — including ones naming labels or trees
// the index never saw — must leave the backend exactly as loaded (the
// read-only invariant that makes lock-free concurrent serving sound).
func TestBackendReadOnly(t *testing.T) {
	b := openBackend(t, fixtureIndex(t))
	_, ts := newTestServer(t, b, Config{})
	before := b.Stats()
	for _, q := range []string{
		"/v1/support?l1=NotATaxon&l2=AlsoNot&dist=1",
		"/v1/support?l1=NotATaxon&l2=Gnetum",
		"/v1/tdist?t1=tree_1&t2=no_such_tree",
		"/v1/tdist?t1=tree_1&t2=tree_2",
		"/v1/frequent?minsup=1",
	} {
		get(t, ts, q)
	}
	if after := b.Stats(); after != before {
		t.Errorf("backend changed during queries: %+v, was %+v", after, before)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, openBackend(t, fixtureIndex(t)), Config{})
	resp, err := ts.Client().Post(ts.URL+"/v1/support?l1=a&l2=b", "text/plain", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST got %d, want 405", resp.StatusCode)
	}
}

func TestHealthzAndDebugEndpoints(t *testing.T) {
	_, ts := newTestServer(t, openBackend(t, fixtureIndex(t)), Config{})
	if st, body := get(t, ts, "/healthz"); st != http.StatusOK || body != "ok\n" {
		t.Errorf("healthz: %d %q", st, body)
	}
	if st, body := get(t, ts, "/debug/vars"); st != http.StatusOK || !strings.Contains(body, "cousinserve") {
		t.Errorf("expvar endpoint: %d, body without cousinserve map", st)
	}
	if st, _ := get(t, ts, "/debug/pprof/"); st != http.StatusOK {
		t.Errorf("pprof index: %d", st)
	}
	if st, body := get(t, ts, "/"); st != http.StatusOK || !strings.Contains(body, "/v1/support") {
		t.Errorf("root endpoint listing: %d %q", st, body)
	}
	if st, _ := get(t, ts, "/nope"); st != http.StatusNotFound {
		t.Errorf("unknown path: %d, want 404", st)
	}
}

// TestShardBackendCapabilities pins the shard-mode contract: support in
// the shard's own distance form and frequent listings work; the other
// distance form and tree distance report 501.
func TestShardBackendCapabilities(t *testing.T) {
	_, ts := newTestServer(t, fixtureShard(t, false), Config{})
	if st, body := get(t, ts, "/v1/support?l1=Gnetum&l2=Welwitschia&dist=0"); st != http.StatusOK || !strings.Contains(body, `"support":4`) {
		t.Errorf("concrete support on distance-keyed shard: %d %s", st, body)
	}
	if st, _ := get(t, ts, "/v1/support?l1=Gnetum&l2=Welwitschia"); st != http.StatusNotImplemented {
		t.Errorf("wildcard support on distance-keyed shard: %d, want 501", st)
	}
	if st, _ := get(t, ts, "/v1/tdist?t1=tree_1&t2=tree_2"); st != http.StatusNotImplemented {
		t.Errorf("tdist on shard: %d, want 501", st)
	}
	if st, _ := get(t, ts, "/v1/frequent?minsup=2"); st != http.StatusOK {
		t.Errorf("frequent on shard: %d", st)
	}
	// Distances past the shard's MaxDist were never mined, so the answer
	// is 0 — in particular past MaxPackedDist (e.g. 8 = 16 halves), where
	// a packed probe would overflow IKey's 4-bit distance field and could
	// surface a different pair's nonzero count.
	for _, d := range []string{"2", "7.5", "8", "32000"} {
		path := "/v1/support?l1=Gnetum&l2=Welwitschia&dist=" + d
		if st, body := get(t, ts, path); st != http.StatusOK || !strings.Contains(body, `"support":0`) {
			t.Errorf("support past shard maxdist %s: %d %s, want support 0", d, st, body)
		}
	}

	_, ts = newTestServer(t, fixtureShard(t, true), Config{})
	if st, _ := get(t, ts, "/v1/support?l1=Gnetum&l2=Welwitschia"); st != http.StatusOK {
		t.Errorf("wildcard support on ignoredist shard: %d", st)
	}
	if st, _ := get(t, ts, "/v1/support?l1=Gnetum&l2=Welwitschia&dist=0"); st != http.StatusNotImplemented {
		t.Errorf("concrete support on ignoredist shard: %d, want 501", st)
	}
}

// TestParseQueryValidation tables the parser's rejection paths; the
// fuzzer explores beyond them.
func TestParseQueryValidation(t *testing.T) {
	bad := []string{
		"l2=b&dist=0",             // missing l1
		"l1=a&dist=0",             // missing l2
		"l1=&l2=b",                // empty label
		"l1=a&l2=b&dist=abc",      // unparsable distance
		"l1=a&l2=b&dist=-0.5",     // negative distance
		"l1=a&l2=b&dist=0.3",      // not a half multiple
		"l1=a&l2=b&dist=99999999", // beyond maxQueryDist
		"l1=a&l2=b&nope=1",        // unknown parameter
		"l1=a&l1=b&l2=c",          // repeated parameter
		"l1=" + strings.Repeat("x", maxNameLen+1) + "&l2=b", // oversized label
	}
	for _, raw := range bad {
		if _, err := ParseSupportQuery(mustParseQuery(t, raw)); err == nil {
			t.Errorf("support query %q accepted", raw)
		}
	}
	badFreq := []string{
		"minsup=0", "minsup=-3", "minsup=2147483648999", "minsup=x",
		"limit=-1", "maxdist=nope", "bogus=1",
	}
	for _, raw := range badFreq {
		if _, err := ParseFrequentQuery(mustParseQuery(t, raw)); err == nil {
			t.Errorf("frequent query %q accepted", raw)
		}
	}
	badTD := []string{
		"t1=a", "t2=b", "t1=&t2=b", "t1=a&t2=b&variant=weird", "t1=a&t2=b&x=1",
	}
	for _, raw := range badTD {
		if _, err := ParseTDistQuery(mustParseQuery(t, raw)); err == nil {
			t.Errorf("tdist query %q accepted", raw)
		}
	}

	q, err := ParseFrequentQuery(mustParseQuery(t, ""))
	if err != nil || q.MinSup != 2 || !q.MaxDist.IsWild() || q.Limit != 0 {
		t.Errorf("frequent defaults: %+v, %v", q, err)
	}
	sq, err := ParseSupportQuery(mustParseQuery(t, "l1=a&l2=b"))
	if err != nil || !sq.D.IsWild() {
		t.Errorf("support default dist: %+v, %v", sq, err)
	}
}

func mustParseQuery(t *testing.T, raw string) url.Values {
	t.Helper()
	vals, err := url.ParseQuery(raw)
	if err != nil {
		t.Fatal(err)
	}
	return vals
}
