package main

import (
	"io"
	"strings"
	"testing"

	"treemine"
)

// The experiment runners are exercised at reduced scale; the full sweeps
// are CLI territory. Each test checks the experiment produces its
// distinguishing output and exits cleanly.

func runExp(t *testing.T, name string) string {
	t.Helper()
	var out strings.Builder
	if err := run([]string{"-exp", name}, &out); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return out.String()
}

func TestTable1(t *testing.T) {
	s := runExp(t, "table1")
	for _, want := range []string{"(a, c, 0.5, 2)", "(a, a, 0, 1)", "(c, c, 1, 1)", "(a, c, *, 2)"} {
		if !strings.Contains(s, want) {
			t.Errorf("table1 missing %q:\n%s", want, s)
		}
	}
}

func TestFig4(t *testing.T) {
	s := runExp(t, "fig4")
	for _, want := range []string{"fanout", "avg time/tree", "60"} {
		if !strings.Contains(s, want) {
			t.Errorf("fig4 missing %q:\n%s", want, s)
		}
	}
}

// TestFig6XL smokes the 100k-tree experiment at a reduced -maxtrees:
// the sharded stream must complete, report identical shard sizes at
// every worker count, and honor the flag's ceiling.
func TestFig6XL(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-exp", "fig6xl", "-maxtrees", "300"}, &out); err != nil {
		t.Fatalf("fig6xl: %v", err)
	}
	s := out.String()
	for _, want := range []string{"workers", "trees/sec", "peak heap MiB", "300"} {
		if !strings.Contains(s, want) {
			t.Errorf("fig6xl missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "100000") {
		t.Errorf("fig6xl ignored -maxtrees:\n%s", s)
	}
}

// TestFig6MaxTreesFlag pins the shared sweep runner: -trees (the alias)
// caps the fig6 sweep.
func TestFig6MaxTreesFlag(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-exp", "fig6", "-trees", "250"}, &out); err != nil {
		t.Fatalf("fig6: %v", err)
	}
	s := out.String()
	if !strings.Contains(s, "250") {
		t.Errorf("fig6 sweep did not reach the -trees ceiling:\n%s", s)
	}
	if strings.Contains(s, "10000") {
		t.Errorf("fig6 ignored -trees:\n%s", s)
	}
}

func TestFig7(t *testing.T) {
	s := runExp(t, "fig7")
	for _, want := range []string{"phylogenies", "1500", "frequent pairs"} {
		if !strings.Contains(s, want) {
			t.Errorf("fig7 missing %q:\n%s", want, s)
		}
	}
}

func TestStudies(t *testing.T) {
	s := runExp(t, "studies")
	if !strings.Contains(s, "studies have frequent patterns") {
		t.Errorf("studies output wrong:\n%s", s)
	}
}

func TestAblation(t *testing.T) {
	s := runExp(t, "ablation")
	for _, want := range []string{"Mine", "MineDP", "NaiveMine", "maxdist"} {
		if !strings.Contains(s, want) {
			t.Errorf("ablation missing %q:\n%s", want, s)
		}
	}
}

func TestFig8(t *testing.T) {
	s := runExp(t, "fig8")
	if !strings.Contains(s, "Gnetum") || !strings.Contains(s, "Welwitschia") {
		t.Errorf("fig8 missing seed-plant taxa:\n%s", s)
	}
	if !strings.Contains(s, "DoyleDonoghue1992") {
		t.Errorf("fig8 missing study id:\n%s", s)
	}
}

func TestFig9(t *testing.T) {
	s := runExp(t, "fig9")
	for _, want := range []string{"majority", "Nelson", "Adams", "strict", "35"} {
		if !strings.Contains(s, want) {
			t.Errorf("fig9 missing %q:\n%s", want, s)
		}
	}
}

func TestFig10(t *testing.T) {
	s := runExp(t, "fig10")
	if !strings.Contains(s, "groups") || !strings.Contains(s, "true") {
		t.Errorf("fig10 output wrong:\n%s", s)
	}
}

func TestMeasures(t *testing.T) {
	s := runExp(t, "measures")
	for _, want := range []string{"NNI moves", "tdist", "RF", "triplet", "edit"} {
		if !strings.Contains(s, want) {
			t.Errorf("measures missing %q:\n%s", want, s)
		}
	}
	// First data row is the zero-perturbation row: all measures 0.
	lines := strings.Split(strings.TrimSpace(s), "\n")
	var zeroRow string
	for _, l := range lines {
		if strings.HasPrefix(l, "0 ") || strings.HasPrefix(l, "0\t") || strings.HasPrefix(l, "0  ") {
			zeroRow = l
			break
		}
	}
	if zeroRow == "" {
		t.Fatalf("zero row missing:\n%s", s)
	}
	for _, f := range strings.Fields(zeroRow) {
		if f != "0" {
			t.Fatalf("zero-perturbation row has nonzero %q: %s", f, zeroRow)
		}
	}
}

// TestPoolIteratorMatchesForest: the streamed Figure 6 sweep must feed
// the miner the exact tree sequence the materialized sweep builds.
func TestPoolIteratorMatchesForest(t *testing.T) {
	pool := make([]*treemine.Tree, 5)
	for i := range pool {
		b := treemine.NewBuilder()
		r := b.Root("r")
		b.Child(r, string(rune('a'+i)))
		pool[i] = b.MustBuild()
	}
	it := &poolIterator{pool: pool, n: 12}
	for i := 0; i < 12; i++ {
		tr, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if tr != pool[i%len(pool)] {
			t.Fatalf("tree %d: iterator diverges from pool cycling", i)
		}
	}
	if _, err := it.Next(); err != io.EOF {
		t.Fatalf("err = %v, want io.EOF", err)
	}
}

func TestCSVOutput(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-exp", "table1", "-csv"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "distance,cousin pair item") {
		t.Fatalf("CSV header missing:\n%s", out.String())
	}
}

func TestUnknownExperiment(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-exp", "fig99"}, &out); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestExperimentRegistryComplete(t *testing.T) {
	names := map[string]bool{}
	for _, e := range experiments() {
		if names[e.name] {
			t.Fatalf("duplicate experiment %s", e.name)
		}
		names[e.name] = true
		if e.desc == "" || e.run == nil {
			t.Fatalf("experiment %s incomplete", e.name)
		}
	}
	for _, want := range []string{"table1", "fig4", "fig5", "fig6", "fig6stream", "fig7", "fig8", "fig9", "fig10"} {
		if !names[want] {
			t.Fatalf("experiment %s missing from registry", want)
		}
	}
}

// TestDistMine smokes the distributed-mining experiment at a reduced
// corpus: it builds the real cousinmine binary, runs every leg, and the
// experiment itself fails unless each merged master is byte-identical
// to the single-process checkpoint — the test only needs the run to
// survive and the table to carry the distinguishing columns.
func TestDistMine(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real cousinmine binary")
	}
	var out strings.Builder
	if err := run([]string{"-exp", "distmine", "-maxtrees", "400"}, &out); err != nil {
		t.Fatalf("distmine: %v", err)
	}
	s := out.String()
	for _, want := range []string{"single", "dist+spill", "worker RSS MiB", "merge", "400 trees", "byte-identical"} {
		if !strings.Contains(s, want) {
			t.Errorf("distmine missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "false") {
		t.Errorf("distmine reported a non-identical master:\n%s", s)
	}
}
