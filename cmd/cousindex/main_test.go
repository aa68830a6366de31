package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func buildIndex(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	nwk := filepath.Join(dir, "trees.nwk")
	idx := filepath.Join(dir, "db.idx")
	if err := os.WriteFile(nwk, []byte("((a,b),c);((a,b),d);((a,x),(b,y));"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"build", "-o", idx, nwk}, nil, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "indexed 3 trees") {
		t.Fatalf("build output: %s", out.String())
	}
	return idx
}

func TestBuildFrequentQueryInfo(t *testing.T) {
	idx := buildIndex(t)

	var out strings.Builder
	if err := run([]string{"frequent", "-i", idx}, nil, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "a") || !strings.Contains(out.String(), "support") {
		t.Fatalf("frequent output: %s", out.String())
	}

	out.Reset()
	if err := run([]string{"query", "-i", idx, "-pair", "a,b", "-dist", "0"}, nil, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "2 of 3 trees") {
		t.Fatalf("query output: %s", out.String())
	}

	out.Reset()
	if err := run([]string{"query", "-i", idx, "-pair", "a,b", "-dist", "*"}, nil, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "3 of 3 trees") {
		t.Fatalf("wildcard query output: %s", out.String())
	}

	out.Reset()
	if err := run([]string{"info", "-i", idx}, nil, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"trees: 3", "maxdist: 1.5", "minoccur: 1"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("info missing %q: %s", want, out.String())
		}
	}
}

func TestQueryConsistentWithDirectMining(t *testing.T) {
	idx := buildIndex(t)
	var out strings.Builder
	// (a,b) at distance 1: only the third tree has it as first cousins.
	if err := run([]string{"query", "-i", idx, "-pair", "a,b", "-dist", "1"}, nil, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "1 of 3 trees") {
		t.Fatalf("query output: %s", out.String())
	}
	if !strings.Contains(out.String(), "tree_3") {
		t.Fatalf("containing tree not listed: %s", out.String())
	}
}

func TestQueryMultiplePairs(t *testing.T) {
	idx := buildIndex(t)
	var out strings.Builder
	// Repeated -pair probes reuse the pre-mined item sets: one load, two
	// support answers.
	if err := run([]string{"query", "-i", idx, "-pair", "a,b", "-pair", "a,c", "-dist", "*"}, nil, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "support of (a, b) at distance *: 3 of 3 trees") {
		t.Fatalf("first probe missing: %s", out.String())
	}
	if !strings.Contains(out.String(), "support of (a, c)") {
		t.Fatalf("second probe missing: %s", out.String())
	}
}

func TestErrors(t *testing.T) {
	idx := buildIndex(t)
	cases := [][]string{
		{},                         // no subcommand
		{"bogus"},                  // unknown subcommand
		{"build"},                  // missing -o
		{"build", "-o", "/nope/x"}, // unwritable… but also no trees: error either way
		{"build", "-o", "x", "-maxdist", "zz"},
		{"build", "-o", "x", "-maxdist", "*"},
		{"frequent"}, // missing -i
		{"frequent", "-i", "/nonexistent"},
		{"query", "-i", idx}, // missing -pair
		{"query", "-i", idx, "-pair", "onlyone"},
		{"query", "-i", idx, "-pair", "a,b", "-dist", "zz"},
		{"info"},
	}
	for _, args := range cases {
		var out strings.Builder
		if err := run(args, strings.NewReader(""), &out); err == nil {
			t.Errorf("run(%v): expected error", args)
		}
	}
}

func TestLoadRejectsGarbageFile(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.idx")
	if err := os.WriteFile(bad, []byte("this is not an index"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"info", "-i", bad}, nil, &out); err == nil {
		t.Fatal("garbage index accepted")
	}
}
