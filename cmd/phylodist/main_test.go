package main

import (
	"context"
	"strings"
	"testing"
)

const fourTrees = "((a,b),(c,d));((a,b),(c,d));((a,c),(b,d));((a,c),(b,d));"

func TestMatrixOutput(t *testing.T) {
	for _, measure := range []string{
		"tdist-label", "tdist-dist", "tdist-occ", "tdist-occ-dist",
		"rf", "triplet", "updown", "edit",
	} {
		var out strings.Builder
		err := run(context.Background(), []string{"-measure", measure}, strings.NewReader(fourTrees), &out)
		if err != nil {
			t.Fatalf("%s: %v", measure, err)
		}
		s := out.String()
		if !strings.Contains(s, "T1") || !strings.Contains(s, "T4") {
			t.Errorf("%s matrix incomplete:\n%s", measure, s)
		}
	}
}

func TestClusterModes(t *testing.T) {
	for _, linkage := range []string{"single", "complete", "average", "kmedoids"} {
		var out strings.Builder
		err := run(context.Background(), []string{"-cluster", "2", "-linkage", linkage},
			strings.NewReader(fourTrees), &out)
		if err != nil {
			t.Fatalf("%s: %v", linkage, err)
		}
		if !strings.Contains(out.String(), "cluster") {
			t.Errorf("%s output wrong:\n%s", linkage, out.String())
		}
	}
}

func TestClusterSeparatesTopologies(t *testing.T) {
	var out strings.Builder
	err := run(context.Background(), []string{"-cluster", "2", "-linkage", "kmedoids"},
		strings.NewReader(fourTrees), &out)
	if err != nil {
		t.Fatal(err)
	}
	// The two identical pairs must land in the same clusters; cost 0.
	if !strings.Contains(out.String(), "cost: 0.0000") {
		t.Errorf("expected zero-cost clustering:\n%s", out.String())
	}
}

func TestNexusInput(t *testing.T) {
	in := "#NEXUS\nBEGIN TREES;\nTREE a = ((a,b),c);\nTREE b = ((a,c),b);\nEND;\n"
	var out strings.Builder
	if err := run(context.Background(), nil, strings.NewReader(in), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "T2") {
		t.Errorf("NEXUS input not handled:\n%s", out.String())
	}
}

func TestErrors(t *testing.T) {
	cases := []struct {
		args []string
		in   string
	}{
		{[]string{"-measure", "bogus"}, fourTrees},
		{[]string{"-maxdist", "zzz"}, fourTrees},
		{[]string{"-cluster", "2", "-linkage", "bogus"}, fourTrees},
		{[]string{"-cluster", "9"}, fourTrees},
		{nil, "(a,b);"},                                      // one tree
		{[]string{"-measure", "rf"}, "((a,b),c);((x,y),z);"}, // RF taxa mismatch
	}
	for _, c := range cases {
		var out strings.Builder
		if err := run(context.Background(), c.args, strings.NewReader(c.in), &out); err == nil {
			t.Errorf("run(%v): expected error", c.args)
		}
	}
}
