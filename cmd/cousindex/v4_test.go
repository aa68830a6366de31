package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"treemine/internal/core"
	"treemine/internal/newick"
	"treemine/internal/oracle"
	"treemine/internal/store"
)

// TestQueryV4MatchesIndex: the file build writes keeps every tree's
// item set, so query answers each probe — containing-tree listings and
// wildcard support too — as the oracle's item sets of the same trees
// do.
func TestQueryV4MatchesIndex(t *testing.T) {
	const forest = "((a,b),c);((a,b),d);((a,x),(b,y));"
	dir := t.TempDir()
	nwk, v4 := filepath.Join(dir, "trees.nwk"), filepath.Join(dir, "db.v4")
	if err := os.WriteFile(nwk, []byte(forest), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"build", "-o", v4, nwk}, nil, &strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	trees, err := newick.ParseAll(strings.NewReader(forest))
	if err != nil {
		t.Fatal(err)
	}
	sets := oracle.MineTrees(trees, 3, 1)
	for _, p := range []struct{ l1, l2, dist string }{
		{"a", "b", "0"}, {"b", "x", "0"}, {"a", "zz", "0"},
		{"a", "b", "1"}, {"c", "a", "1"}, {"a", "b", "*"}, {"a", "y", "*"},
	} {
		d, err := core.ParseDist(p.dist)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("support of (%s, %s) at distance %s: %d of %d trees\n",
			p.l1, p.l2, p.dist, oracle.Support(sets, p.l1, p.l2, int(d)), len(trees))
		for i, s := range sets {
			if n := s[oracle.NewKey(p.l1, p.l2, int(d))]; n > 0 {
				want += fmt.Sprintf("  tree_%d (%d nodes, %d occurrences)\n", i+1, trees[i].Size(), n)
			}
		}
		var out strings.Builder
		if err := run([]string{"query", "-i", v4, "-pair", p.l1 + "," + p.l2, "-dist", p.dist}, nil, &out); err != nil {
			t.Fatal(err)
		}
		if out.String() != want {
			t.Fatalf("%+v: query answers\n%swant\n%s", p, out.String(), want)
		}
	}
}

// TestBuildMatchesCompactOfV2: build writes exactly the bytes compact
// converts a v2 index file of the same trees into, in both keying
// modes. The v2 file comes from the oracle's own miner and encoder.
func TestBuildMatchesCompactOfV2(t *testing.T) {
	const forest = "((a,b),c);((a,b),d);((a,x),(b,y));((((((((a,c))))))),(((((((((b,d))))))))));"
	dir := t.TempDir()
	nwk := filepath.Join(dir, "trees.nwk")
	if err := os.WriteFile(nwk, []byte(forest), 0o644); err != nil {
		t.Fatal(err)
	}
	trees, err := newick.ParseAll(strings.NewReader(forest))
	if err != nil {
		t.Fatal(err)
	}
	for _, maxDist := range []string{"1.5", "10"} {
		built, v2, converted := filepath.Join(dir, "built.v4"), filepath.Join(dir, "db.idx"), filepath.Join(dir, "db.idx.v4")
		if err := run([]string{"build", "-o", built, "-maxdist", maxDist, nwk}, nil, &strings.Builder{}); err != nil {
			t.Fatal(err)
		}
		d, err := core.ParseDist(maxDist)
		if err != nil {
			t.Fatal(err)
		}
		its := make([]oracle.IndexTree, len(trees))
		for i, s := range oracle.MineTrees(trees, int(d), 1) {
			its[i] = oracle.IndexTree{Name: fmt.Sprintf("tree_%d", i+1), Nodes: trees[i].Size(), Items: s}
		}
		var buf bytes.Buffer
		if err := oracle.EncodeV2(&buf, int(d), 1, its); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(v2, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := run([]string{"compact", "-i", v2, "-o", converted}, nil, &strings.Builder{}); err != nil {
			t.Fatal(err)
		}
		a, err := os.ReadFile(built)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(converted)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("maxdist %s: build wrote %d bytes, compact of the v2 file %d, and they differ", maxDist, len(a), len(b))
		}
	}
}

// TestQueryRefusesShardV4: a file compacted from a shard holds aggregate
// counts only; query refuses it, frequent and info still answer.
func TestQueryRefusesShardV4(t *testing.T) {
	trees, err := newick.ParseAll(strings.NewReader("((a,b),c);((a,b),d);"))
	if err != nil {
		t.Fatal(err)
	}
	sh := core.NewSupportShard(core.DefaultForestOptions())
	for _, tr := range trees {
		sh.AddTree(tr)
	}
	v4 := filepath.Join(t.TempDir(), "shard.v4")
	if err := store.CompactShardV4(v4, sh); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"query", "-i", v4, "-pair", "a,b", "-dist", "0"}, nil, &out); err == nil || !strings.Contains(err.Error(), "per-tree item sets") {
		t.Fatalf("query on a shard-derived v4: err %v, want a refusal", err)
	}
	for _, args := range [][]string{{"frequent", "-i", v4}, {"info", "-i", v4}} {
		if err := run(args, nil, &out); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}
	if !strings.Contains(out.String(), "per-tree item sets: false") {
		t.Fatalf("info output: %s", out.String())
	}
}
