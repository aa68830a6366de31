package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSingleMode(t *testing.T) {
	var out strings.Builder
	in := strings.NewReader("((a,b),(c,d));")
	if err := run(context.Background(), nil, in, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"tree 1", "a", "dist", "occur"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunMultiMode(t *testing.T) {
	var out strings.Builder
	in := strings.NewReader("((a,b),c);((a,b),d);")
	if err := run(context.Background(), []string{"-mode", "multi"}, in, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "support") || !strings.Contains(s, "2 trees") {
		t.Errorf("multi output wrong:\n%s", s)
	}
}

func TestRunMultiIgnoreDist(t *testing.T) {
	var out strings.Builder
	// (a,b) at distance 0 in one tree, 1 in the other: only frequent
	// when the distance is wildcarded.
	in := strings.NewReader("((a,b),c);((a,x),(b,y));")
	if err := run(context.Background(), []string{"-mode", "multi", "-ignoredist"}, in, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "*") {
		t.Errorf("wildcard distance missing:\n%s", out.String())
	}
}

func TestRunFromFile(t *testing.T) {
	dir := t.TempDir()
	f := filepath.Join(dir, "trees.nwk")
	if err := os.WriteFile(f, []byte("((x,y),z);"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run(context.Background(), []string{f}, strings.NewReader(""), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "x") {
		t.Errorf("file input not mined:\n%s", out.String())
	}
}

func TestRunNexusInput(t *testing.T) {
	in := "#NEXUS\nBEGIN TREES;\nTRANSLATE 1 Gnetum, 2 Welwitschia, 3 Ephedra;\nTREE t = ((1,2),3);\nEND;\n"
	var out strings.Builder
	if err := run(context.Background(), nil, strings.NewReader(in), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Gnetum") || !strings.Contains(out.String(), "Welwitschia") {
		t.Fatalf("NEXUS translate not applied:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-mode", "bogus"},
		{"-maxdist", "zzz"},
		{"-maxdist", "*"},
		{"/nonexistent/file.nwk"},
	}
	for _, args := range cases {
		var out strings.Builder
		if err := run(context.Background(), args, strings.NewReader("(a,b);"), &out); err == nil {
			t.Errorf("run(%v): expected error", args)
		}
	}
	// Empty input.
	var out strings.Builder
	if err := run(context.Background(), nil, strings.NewReader(""), &out); err == nil {
		t.Error("empty input accepted")
	}
	// Malformed Newick.
	if err := run(context.Background(), nil, strings.NewReader("((a,b);"), &out); err == nil {
		t.Error("malformed newick accepted")
	}
}

func TestRunJSONFormats(t *testing.T) {
	var out strings.Builder
	in := strings.NewReader("((a,b),c);")
	if err := run(context.Background(), []string{"-format", "json"}, in, &out); err != nil {
		t.Fatal(err)
	}
	var single []struct {
		Tree  int `json:"tree"`
		Nodes int `json:"nodes"`
		Items []struct {
			Key struct {
				A, B, D string
			}
			Occur int
		} `json:"items"`
	}
	if err := json.Unmarshal([]byte(out.String()), &single); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out.String())
	}
	// ((a,b),c): siblings (a,b) plus aunt–niece (a,c) and (b,c).
	if len(single) != 1 || single[0].Nodes != 5 || len(single[0].Items) != 3 {
		t.Fatalf("JSON content wrong: %+v", single)
	}
	if single[0].Items[0].Key.D != "0" {
		t.Fatalf("distance = %q", single[0].Items[0].Key.D)
	}

	out.Reset()
	in = strings.NewReader("((a,b),c);((a,b),d);")
	if err := run(context.Background(), []string{"-mode", "multi", "-format", "json"}, in, &out); err != nil {
		t.Fatal(err)
	}
	var multi []struct {
		Key     struct{ A, B, D string }
		Support int
	}
	if err := json.Unmarshal([]byte(out.String()), &multi); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out.String())
	}
	if len(multi) != 1 || multi[0].Support != 2 {
		t.Fatalf("multi JSON wrong: %+v", multi)
	}

	var sink strings.Builder
	if err := run(context.Background(), []string{"-format", "yaml"}, strings.NewReader("(a,b);"), &sink); err == nil {
		t.Fatal("unknown format accepted")
	}
}

func TestRunMinOccurFlag(t *testing.T) {
	var out strings.Builder
	in := strings.NewReader("((a,b),(a,b));")
	if err := run(context.Background(), []string{"-minoccur", "2"}, in, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	// (a,b,0) occurs twice (within each pair of siblings); (a,a,1) etc.
	// occur once and must be filtered.
	if !strings.Contains(s, "2") {
		t.Errorf("expected an occurrence-2 item:\n%s", s)
	}
	if strings.Contains(s, "\n a  a") {
		t.Errorf("minoccur filter failed:\n%s", s)
	}
}
