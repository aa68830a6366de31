package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"treemine"
)

func TestSupertreeFromStdin(t *testing.T) {
	var out strings.Builder
	in := strings.NewReader("((a,b),(c,d));((c,d),e);")
	if err := run(nil, in, &out); err != nil {
		t.Fatal(err)
	}
	st, err := treemine.ParseNewick(strings.TrimSpace(out.String()))
	if err != nil {
		t.Fatalf("output not Newick: %v\n%s", err, out.String())
	}
	if got := len(st.LeafLabels()); got != 5 {
		t.Fatalf("supertree taxa = %d, want 5", got)
	}
}

func TestKernelMode(t *testing.T) {
	dir := t.TempDir()
	g1 := filepath.Join(dir, "g1.nwk")
	g2 := filepath.Join(dir, "g2.nwk")
	// Group 1 over {a,b,c,d}, group 2 over {c,d,e}: one tree in each
	// group shares the (c,d) clade, so the kernels should agree on it.
	if err := os.WriteFile(g1, []byte("((a,b),(c,d));((a,c),(b,d));"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(g2, []byte("((c,d),e);((c,e),d);"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-kernel", "-v", g1, g2}, nil, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "# group") || !strings.Contains(s, "tdist") {
		t.Fatalf("verbose output missing:\n%s", s)
	}
	// Last line is the supertree.
	lines := strings.Split(strings.TrimSpace(s), "\n")
	st, err := treemine.ParseNewick(lines[len(lines)-1])
	if err != nil {
		t.Fatalf("supertree line not Newick: %v", err)
	}
	if got := len(st.LeafLabels()); got != 5 {
		t.Fatalf("supertree taxa = %d, want 5", got)
	}
}

func TestErrors(t *testing.T) {
	cases := []struct {
		args []string
		in   string
	}{
		{nil, ""},                 // no trees
		{[]string{"-kernel"}, ""}, // too few groups
		{[]string{"-kernel", "/nonexistent1", "/nonexistent2"}, ""},
		{nil, "((a,b);"}, // bad newick
	}
	for _, c := range cases {
		var out strings.Builder
		if err := run(c.args, strings.NewReader(c.in), &out); err == nil {
			t.Errorf("run(%v): expected error", c.args)
		}
	}
}

func TestKernelModeEmptyGroupFile(t *testing.T) {
	dir := t.TempDir()
	g1 := filepath.Join(dir, "g1.nwk")
	g2 := filepath.Join(dir, "empty.nwk")
	if err := os.WriteFile(g1, []byte("((a,b),c);"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(g2, []byte("  \n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-kernel", g1, g2}, nil, &out); err == nil {
		t.Fatal("empty group accepted")
	}
}
