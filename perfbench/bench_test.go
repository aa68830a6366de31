package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// orchestrator re-executes itself for the ingest and serve processes.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "ingest", "serve":
			main()
			os.Exit(0)
		}
	}
	os.Exit(m.Run())
}

// tinyScale shrinks every corpus to a few dozen trees.
const tinyScale = 0.01

// benchSpec is the part of BENCHMARK.json the tests check against.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestEveryWorkloadEndToEnd runs each workload at a tiny size, untraced
// and traced, through the command-line entry point, and checks that the
// last output line is a correct result naming every metric of
// BENCHMARK.json with its unit.
func TestEveryWorkloadEndToEnd(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace="+trace, func(t *testing.T) {
				var out bytes.Buffer
				args := []string{"-workload", w.Name, "-seed", "3", "-seconds", "0.5", "-trace", trace,
					"-scale", fmt.Sprint(tinyScale), "-work", t.TempDir()}
				if err := benchMain(args, &out); err != nil {
					t.Fatal(err)
				}
				var res result
				if err := json.Unmarshal(lastLine(out.Bytes()), &res); err != nil {
					t.Fatalf("last line is not a result: %v\n%s", err, out.Bytes())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := spec.EndToEnd
				if trace == "1" {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("got %d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s: unit %q, want %q", m.Name, got.Unit, m.Unit)
					}
				}
			})
		}
	}
}

// TestSeedDeterminesCorpusAndIndex checks that a seed fixes the corpus
// and the ingested index bytes, that the ingested index equals the
// in-memory reference, and that another seed changes both.
func TestSeedDeterminesCorpusAndIndex(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			w := w.scaled(tinyScale)
			build := func(seed int64) (digest string, index []byte) {
				dir := t.TempDir()
				c, err := makeCorpus(w, seed, dir)
				if err != nil {
					t.Fatal(err)
				}
				out := filepath.Join(dir, "index.v4")
				if _, err := ingest(w, c.path, out, dir, true); err != nil {
					t.Fatal(err)
				}
				got, err := os.ReadFile(out)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := os.ReadFile(c.ref)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, ref) {
					t.Fatalf("seed %d: ingested index differs from the reference", seed)
				}
				return c.digest, got
			}
			d1, i1 := build(1)
			d2, i2 := build(1)
			d3, i3 := build(2)
			if d1 != d2 || !bytes.Equal(i1, i2) {
				t.Error("the same seed gave different corpora or indexes")
			}
			if d1 == d3 || bytes.Equal(i1, i3) {
				t.Error("another seed gave the same corpus or index")
			}
		})
	}
}

// TestSpillWorkloadSpills checks that the spill workload really writes
// several segments, so the fold and k-way merge run. The corpus must
// span several 64-tree mining rounds, since spills happen between
// rounds.
func TestSpillWorkloadSpills(t *testing.T) {
	w, err := findWorkload("treebase")
	if err != nil {
		t.Fatal(err)
	}
	w = w.scaled(0.05)
	dir := t.TempDir()
	c, err := makeCorpus(w, 1, dir)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ingest(w, c.path, filepath.Join(dir, "index.v4"), dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Layers.Segments < 2 {
		t.Errorf("%d spill segments, want several", rep.Layers.Segments)
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of even count = %v, want 2.5", got)
	}
	if got := quantile(xs, 0.99); got != 5 {
		t.Errorf("p99 = %v, want 5", got)
	}
	if got := quantile(xs, 0.5); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
}
