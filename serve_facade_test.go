package treemine_test

import (
	"bytes"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	treemine "treemine"
	"treemine/internal/store"
)

// TestQueryServerFacade exercises the public serving surface the way an
// embedding process would: mine a forest, write its v4 index, open it
// through OpenQueryBackendPath and OpenQueryBackend, and answer queries
// over HTTP.
func TestQueryServerFacade(t *testing.T) {
	forest := `
((Gnetum,Welwitschia),(Ephedra,Ginkgoales));
((Gnetum,Welwitschia),Ephedra,(Pinaceae,Ginkgoales));
(((Gnetum,Welwitschia),Ephedra),(Angiosperms,Cycadales));
`
	trees, err := treemine.ParseNewickAll(strings.NewReader(forest))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := store.Build(trees, nil, treemine.Options{MaxDist: treemine.D(3), MinOccur: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "forest.v4")
	if err := store.CompactIndexV4(path, ix); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if b, err := treemine.OpenQueryBackend(bytes.NewReader(raw)); err != nil || b.Trees() != 3 {
		t.Fatalf("OpenQueryBackend: %v", err)
	}

	b, err := treemine.OpenQueryBackendPath(path)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	s := treemine.NewQueryServer(b, treemine.QueryServerConfig{CacheEntries: 32})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, q := range []struct {
		path, frag string
	}{
		{"/v1/support?l1=Gnetum&l2=Welwitschia&dist=0", `"support":3`},
		{"/v1/frequent?minsup=3", `"minsup":3`},
		{"/v1/tdist?t1=tree_1&t2=tree_2", `"tdist"`},
		{"/v1/stats", `"trees":3`},
	} {
		resp, err := ts.Client().Get(ts.URL + q.path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 || !strings.Contains(string(body), q.frag) {
			t.Errorf("%s: %d %s", q.path, resp.StatusCode, body)
		}
	}

	var st treemine.QueryCacheStats = s.CacheStats()
	if st.Misses == 0 {
		t.Errorf("cache never consulted: %+v", st)
	}
}
