package main

import (
	"strings"
	"testing"

	"treemine"
)

const twoTrees = "(((a,b),c),d);(((a,b),d),c);"

func TestRunSingleMethod(t *testing.T) {
	for _, method := range []string{"strict", "semi-strict", "majority", "Nelson", "Adams"} {
		var out strings.Builder
		if err := run([]string{"-method", method}, strings.NewReader(twoTrees), &out); err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		trees, err := treemine.ParseNewickAll(strings.NewReader(out.String()))
		if err != nil || len(trees) != 1 {
			t.Fatalf("%s output not one Newick tree: %v\n%s", method, err, out.String())
		}
		if got := len(trees[0].LeafLabels()); got != 4 {
			t.Fatalf("%s consensus has %d taxa", method, got)
		}
	}
}

func TestRunScoreMode(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-score"}, strings.NewReader(twoTrees), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, m := range []string{"strict", "semi-strict", "majority", "Nelson", "Adams"} {
		if !strings.Contains(s, m) {
			t.Errorf("score table missing %s:\n%s", m, s)
		}
	}
	// Ranked: first data line holds the max score.
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) < 7 {
		t.Fatalf("score table too short:\n%s", s)
	}
}

func TestRunDrawMode(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-method", "majority", "-draw"}, strings.NewReader(twoTrees), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "└─") || !strings.Contains(s, "a") {
		t.Fatalf("draw output wrong:\n%s", s)
	}
}

func TestRunErrors(t *testing.T) {
	for _, c := range []struct {
		args []string
		in   string
	}{
		{[]string{"-method", "bogus"}, twoTrees},
		{[]string{"-maxdist", "zzz"}, twoTrees},
		{nil, ""},                         // no trees
		{nil, "((a,b),c);((a,b),(c,d));"}, // taxa mismatch
	} {
		var out strings.Builder
		if err := run(c.args, strings.NewReader(c.in), &out); err == nil {
			t.Errorf("run(%v, %q): expected error", c.args, c.in)
		}
	}
}
