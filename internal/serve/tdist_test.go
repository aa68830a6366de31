package serve

import (
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"treemine/internal/core"
	"treemine/internal/store"
	"treemine/internal/tree"
	"treemine/internal/treegen"
)

// fanoutBackend serves n Table 3 trees (treegen defaults: 200 nodes,
// fanout 5, 200 labels) mined at the default options, from a packed v4
// file compacted from their index — the shape whose per-tree sections
// Backend.TDist reads.
func fanoutBackend(tb testing.TB, n int) (*Backend, []string) {
	tb.Helper()
	rng := rand.New(rand.NewSource(5))
	trees := make([]*tree.Tree, n)
	for i := range trees {
		trees[i] = treegen.Fanout(rng, treegen.DefaultParams())
	}
	ix, err := store.Build(trees, nil, core.DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	path := filepath.Join(tb.TempDir(), "fanout.v4")
	if err := store.CompactIndexV4(path, ix); err != nil {
		tb.Fatal(err)
	}
	b, err := OpenPath(path)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { b.Close() })
	if b.m.Generic() || !b.m.HasTrees() {
		tb.Fatal("fixture is not a packed v4 file with per-tree items")
	}
	names := make([]string, len(ix.Entries))
	for i, e := range ix.Entries {
		names[i] = e.Name
	}
	return b, names
}

// TestBackendTDistZeroAlloc gates the serve tree-distance path: on a
// packed file, once its pooled posting buffers are warm, one
// Backend.TDist reads both trees' runs straight off the mapped
// per-tree section and allocates nothing, in every variant.
func TestBackendTDistZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under -race")
	}
	b, names := fanoutBackend(t, 8)
	for _, v := range []core.Variant{core.VariantLabel, core.VariantDist, core.VariantOccur, core.VariantDistOccur} {
		call := func() {
			if _, _, err := b.TDist(names[1], names[6], v); err != nil {
				t.Fatal(err)
			}
		}
		call()
		if n := testing.AllocsPerRun(50, call); n != 0 {
			t.Errorf("%v: Backend.TDist allocates %v per call, want 0", v, n)
		}
	}
}

// TestBackendTDistRace calls Backend.TDist from several goroutines at
// once, past any cache, so the pooled posting buffers are shared across
// requests under -race; every answer must equal the serial one.
func TestBackendTDistRace(t *testing.T) {
	b, names := fanoutBackend(t, 6)
	variants := []core.Variant{core.VariantLabel, core.VariantDist, core.VariantOccur, core.VariantDistOccur}
	type answer struct{ tdist, sim float64 }
	query := func(i int) answer {
		td, sim, err := b.TDist(names[i%len(names)], names[(i/len(names))%len(names)], variants[i%len(variants)])
		if err != nil {
			t.Error(err)
		}
		return answer{td, sim}
	}
	const queries = 48
	want := make([]answer, queries)
	for i := range want {
		want[i] = query(i)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < queries+g; i++ {
				if got := query(i % queries); got != want[i%queries] {
					t.Errorf("query %d: %+v under concurrency, %+v serially", i%queries, got, want[i%queries])
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkBackendTDist times one tree-distance request on the backend
// (no HTTP, no cache): 200 Table 3 trees, index-derived packed v4.
func BenchmarkBackendTDist(b *testing.B) {
	be, names := fanoutBackend(b, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := be.TDist(names[i%len(names)], names[(i+1)%len(names)], core.VariantDistOccur); err != nil {
			b.Fatal(err)
		}
	}
}
