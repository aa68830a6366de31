package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"treemine/internal/core"
	"treemine/internal/newick"
	"treemine/internal/store"
)

// TestQueryV4MatchesIndex: a v4 file compacted from an index keeps its
// per-tree item sets, so every subcommand answers from it exactly as
// from the index — containing-tree listings and wildcard support too.
func TestQueryV4MatchesIndex(t *testing.T) {
	dir := t.TempDir()
	nwk := filepath.Join(dir, "trees.nwk")
	idx, v4 := filepath.Join(dir, "db.idx"), filepath.Join(dir, "db.v4")
	if err := os.WriteFile(nwk, []byte("((a,b),c);((a,b),d);((a,x),(b,y));"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"build", "-o", idx, "-compact", v4, nwk}, nil, &strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"query", "-pair", "a,b", "-pair", "b,x", "-pair", "a,zz", "-dist", "0"},
		{"query", "-pair", "a,b", "-pair", "c,a", "-dist", "1"},
		{"query", "-pair", "a,b", "-pair", "a,y", "-dist", "*"},
		{"frequent", "-minsup", "1"},
	} {
		var fromIdx, fromV4 strings.Builder
		if err := run(append(args, "-i", idx), nil, &fromIdx); err != nil {
			t.Fatal(err)
		}
		if err := run(append(args, "-i", v4), nil, &fromV4); err != nil {
			t.Fatal(err)
		}
		if fromIdx.String() != fromV4.String() {
			t.Fatalf("%v: v4 answer differs\n--- index ---\n%s--- v4 ---\n%s", args, fromIdx.String(), fromV4.String())
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
