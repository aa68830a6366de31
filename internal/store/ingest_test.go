package store

import (
	"bytes"
	"context"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"treemine/internal/core"
	"treemine/internal/newick"
	"treemine/internal/phyloio"
	"treemine/internal/tree"
	"treemine/internal/treebase"
	"treemine/internal/treegen"
)

// writeCorpus writes trees to dir/corpus.nwk, one Newick tree a line,
// and returns its absolute path.
func writeCorpus(t testing.TB, dir string, trees []*tree.Tree) string {
	t.Helper()
	path := filepath.Join(dir, "corpus.nwk")
	var buf bytes.Buffer
	for _, tr := range trees {
		buf.WriteString(newick.Write(tr) + "\n")
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func mustRead(t testing.TB, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// sameFile fails unless the two files hold the same bytes.
func sameFile(t testing.TB, what, want, got string) {
	t.Helper()
	if !bytes.Equal(mustRead(t, want), mustRead(t, got)) {
		t.Errorf("%s: %s differs from %s", what, got, want)
	}
}

// written sums the bytes a report's stages wrote: all but the fold's,
// which it read.
func written(r *Report) int64 {
	return r.Spill.Bytes + r.Shard.Bytes + r.Master.Bytes + r.Compact.Bytes
}

// ranStage fails unless a stage that ran reports a time and a size.
func ranStage(t testing.TB, name string, s Stage) {
	t.Helper()
	if s.Wall <= 0 || s.Bytes <= 0 {
		t.Errorf("stage %s ran but reports %v and %d bytes", name, s.Wall, s.Bytes)
	}
}

// TestIngestMatchesBenchmarkSequences runs the benchmark's two
// hand-written ingest sequences and the Mine/Merge entry points over
// the same corpora: a Figure 6-like run with one final checkpoint, and
// a TreeBASE-like run under a tiny spill budget, folded by a
// one-partition merge. Every checkpoint, shard and v4 file must be
// byte-identical, and the report must account for each stage that ran.
func TestIngestMatchesBenchmarkSequences(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	fig6 := make([]*tree.Tree, 120)
	for i := range fig6 {
		fig6[i] = treegen.Fanout(rng, treegen.DefaultParams())
	}
	cfg := treebase.DefaultConfig()
	cfg.NumTrees = 90
	st, err := treebase.NewStream(7, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var tb []*tree.Tree
	for {
		tr, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		tb = append(tb, tr)
	}

	for _, tc := range []struct {
		name  string
		trees []*tree.Tree
		w     workload
	}{
		{"fig6", fig6, workload{opts: core.DefaultForestOptions()}},
		{"treebase", tb, workload{opts: core.DefaultForestOptions(), spillEntries: 300}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := t.TempDir()
			corpus := writeCorpus(t, base, tc.trees)
			odir, ndir := filepath.Join(base, "oracle"), filepath.Join(base, "new")
			for _, d := range []string{odir, ndir} {
				if err := os.Mkdir(d, 0o777); err != nil {
					t.Fatal(err)
				}
			}
			orep, err := perfbenchIngest(tc.w, corpus, filepath.Join(odir, "out.v4"), odir, true)
			if err != nil {
				t.Fatal(err)
			}

			src := phyloio.OpenTrees([]string{corpus}, nil)
			defer src.Close()
			out := filepath.Join(ndir, "out.v4")
			if tc.w.spillEntries == 0 {
				ckpt := filepath.Join(ndir, "run.shard")
				sh, rep, err := Mine(context.Background(), src, tc.w.opts, MineConfig{
					Workers: 1, Checkpoint: ckpt, CheckpointEvery: math.MaxInt, Compact: out,
				})
				if err != nil {
					t.Fatal(err)
				}
				sameFile(t, "checkpoint", filepath.Join(odir, "run.shard"), ckpt)
				sameFile(t, "v4 index", filepath.Join(odir, "out.v4"), out)
				if rep.Trees != len(tc.trees) || sh.Trees() != rep.Trees || rep.Rounds != orep.Layers.Rounds {
					t.Errorf("report: %d trees in %d rounds, want %d in %d", rep.Trees, rep.Rounds, len(tc.trees), orep.Layers.Rounds)
				}
				ranStage(t, "shard", rep.Shard)
				ranStage(t, "compact", rep.Compact)
				if written(rep) != orep.Layers.WrittenBytes {
					t.Errorf("report: %d bytes written, the oracle wrote %d", written(rep), orep.Layers.WrittenBytes)
				}
				return
			}

			m, err := NewManifest([]string{corpus}, len(tc.trees), 1, tc.w.opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Save(filepath.Join(ndir, "plan.json")); err != nil {
				t.Fatal(err)
			}
			sh, mrep, err := Mine(context.Background(), src, tc.w.opts, MineConfig{
				Workers: 1, Shard: m.ShardPath(0), SpillEntries: tc.w.spillEntries, Trees: len(tc.trees),
			})
			if err != nil {
				t.Fatal(err)
			}
			if sh != nil {
				t.Error("a spilled Mine returned a resident shard")
			}
			master, rep, err := Merge(m, false, out)
			if err != nil {
				t.Fatal(err)
			}
			sameFile(t, "worker shard", filepath.Join(odir, "worker.shard"), m.ShardPath(0))
			sameFile(t, "master checkpoint", filepath.Join(odir, "run.shard"), m.MasterPath())
			sameFile(t, "v4 index", filepath.Join(odir, "out.v4"), out)
			if mrep.Segments != orep.Layers.Segments || mrep.Segments < 2 {
				t.Errorf("report: %d spill segments, the accumulator wrote %d (want several)", mrep.Segments, orep.Layers.Segments)
			}
			if mrep.Trees != len(tc.trees) || master.Trees() != len(tc.trees) || rep.Trees != len(tc.trees) {
				t.Errorf("report: mined %d trees, merged %d, want %d", mrep.Trees, rep.Trees, len(tc.trees))
			}
			if mrep.Rounds != orep.Layers.Rounds {
				t.Errorf("report: %d rounds, the oracle counted %d", mrep.Rounds, orep.Layers.Rounds)
			}
			ranStage(t, "spill", mrep.Spill)
			ranStage(t, "shard", mrep.Shard)
			ranStage(t, "fold", rep.Fold)
			ranStage(t, "master", rep.Master)
			ranStage(t, "compact", rep.Compact)
			if mrep.Spill.Bytes != orep.Layers.SpillBytes {
				t.Errorf("report: %d spill bytes, the oracle counted %d", mrep.Spill.Bytes, orep.Layers.SpillBytes)
			}
			if got := written(mrep) + written(rep); got != orep.Layers.WrittenBytes {
				t.Errorf("report: %d bytes written, the oracle wrote %d", got, orep.Layers.WrittenBytes)
			}
			if _, err := os.Stat(m.ShardPath(0) + ".spill"); !os.IsNotExist(err) {
				t.Errorf("spill directory left behind after Finish: %v", err)
			}
		})
	}
}

// countingIter serves trees and counts how it is consumed.
type countingIter struct {
	trees       []*tree.Tree
	i           int
	next, skims int
}

func (c *countingIter) Next() (*tree.Tree, error) {
	if c.i == len(c.trees) {
		return nil, io.EOF
	}
	c.i++
	c.next++
	return c.trees[c.i-1], nil
}

func (c *countingIter) Skim() error {
	if c.i == len(c.trees) {
		return io.EOF
	}
	c.i++
	c.skims++
	return nil
}

// TestResumeSkimsCheckpointedPrefix: a stream resumed from a checkpoint
// of its first k trees skims those k trees instead of building them,
// builds only the trees it mines, and checkpoints the same bytes as the
// uninterrupted run.
func TestResumeSkimsCheckpointedPrefix(t *testing.T) {
	forest := shardForest(21, 40, 25)
	opts := core.DefaultForestOptions()
	checkpoint := func(last *[]byte) func(*core.SupportShard) error {
		return func(sh *core.SupportShard) error {
			var buf bytes.Buffer
			err := SaveShard(&buf, sh)
			*last = buf.Bytes()
			return err
		}
	}
	var want []byte
	if _, err := core.MineForestStreamShard(&countingIter{trees: forest}, opts,
		core.StreamConfig{Workers: 2, BatchSize: 4, CheckpointEvery: 8, Checkpoint: checkpoint(&want)}); err != nil {
		t.Fatal(err)
	}

	for _, k := range []int{1, 13, 39} {
		var prefix []byte
		if _, err := core.MineForestStreamShard(&countingIter{trees: forest[:k]}, opts,
			core.StreamConfig{Workers: 2, BatchSize: 4, CheckpointEvery: 8, Checkpoint: checkpoint(&prefix)}); err != nil {
			t.Fatal(err)
		}
		restored, err := LoadShard(bytes.NewReader(prefix))
		if err != nil {
			t.Fatal(err)
		}
		it := &countingIter{trees: forest}
		var got []byte
		if _, err := core.MineForestStreamShard(it, opts, core.StreamConfig{
			Workers: 2, BatchSize: 4, CheckpointEvery: 8, Checkpoint: checkpoint(&got),
			Resume: restored, SkipTrees: restored.Trees(),
		}); err != nil {
			t.Fatal(err)
		}
		if it.skims != k || it.next != len(forest)-k {
			t.Errorf("resumed at %d: %d skims and %d trees built, want %d and %d", k, it.skims, it.next, k, len(forest)-k)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("resumed at %d: final checkpoint differs from the uninterrupted run's", k)
		}
	}
}

// TestMineRejectsConflictingConfig: a checkpoint and a shard, or a
// spill without a shard or with a compaction, are errors, not guesses.
func TestMineRejectsConflictingConfig(t *testing.T) {
	dir := t.TempDir()
	opts := core.DefaultForestOptions()
	for _, cfg := range []MineConfig{
		{Checkpoint: filepath.Join(dir, "a"), Shard: filepath.Join(dir, "b")},
		{SpillEntries: 10},
		{Shard: filepath.Join(dir, "b"), SpillEntries: 10, Compact: filepath.Join(dir, "c")},
	} {
		if _, _, err := Mine(context.Background(), core.NewSliceIterator(shardForest(1, 3, 10)), opts, cfg); err == nil {
			t.Errorf("Mine accepted %+v", cfg)
		}
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Errorf("rejected configs wrote %d files", len(ents))
	}
}

// FuzzIngest holds the ingest contract — stream ≡ distributed ≡ naive —
// over arbitrary Newick input: Mine over the whole corpus (checkpoint
// and compact, as -stream does) and plan → Mine per partition (spilling
// under a budget) → Merge must write the same v4 bytes, and those bytes
// must decode, by internal/oracle's reader, to the oracle's brute-force
// model of the forest; input that does not parse fails both ways.
func FuzzIngest(f *testing.F) {
	for _, seed := range []struct {
		nwk                    string
		halves                 uint8
		ignore                 bool
		workers, parts, budget uint8
	}{
		{"((a,b),(c,d));((a,c),(b,d));((a,b),c);", 3, false, 2, 2, 0},
		{"((a,b),(c,d));((a,c),(b,d));((a,b),c);((b,a),(d,c));", 3, false, 1, 3, 2},
		{"((a,(b,(c,(d,(e,(f,(g,h))))))),i);(a,(b,(c,(d,e))));", 20, false, 3, 2, 0},
		{"((a,(b,(c,(d,(e,(f,(g,h))))))),i);(a,(b,(c,(d,e))));", 14, true, 2, 2, 1},
		{"(a,b,c,d,e,f,g);(a,b,c);(x,y,a,b);", 2, true, 1, 2, 3},
		{"(('q a','b''c'),(c,'q a'));(('b''c',d),'q a');", 4, false, 2, 3, 1},
		{"((a,b),(c,d));((a,b),(c;", 3, false, 1, 2, 0},
	} {
		f.Add([]byte(seed.nwk), seed.halves, seed.ignore, seed.workers, seed.parts, seed.budget)
	}
	f.Fuzz(func(t *testing.T, nwk []byte, halves uint8, ignore bool, workers, parts, budget uint8) {
		if len(nwk) > 2048 {
			t.Skip()
		}
		opts := core.ForestOptions{
			Options:    core.Options{MaxDist: core.Dist(halves % 21), MinOccur: 1},
			MinSup:     2,
			IgnoreDist: ignore,
		}
		spill := 0
		if opts.MaxDist <= core.MaxPackedDist && budget%65 != 0 {
			spill = int(budget % 65)
		}
		w, p := 1+int(workers%3), 1+int(parts%3)
		dir := t.TempDir()
		corpus := filepath.Join(dir, "corpus.nwk")
		if err := os.WriteFile(corpus, nwk, 0o644); err != nil {
			t.Fatal(err)
		}
		trees, perr := phyloio.ReadTrees([]string{corpus}, nil)

		single := filepath.Join(dir, "single.v4")
		src := phyloio.OpenTrees([]string{corpus}, nil)
		_, _, serr := Mine(context.Background(), src, opts, MineConfig{
			Workers: w, Checkpoint: filepath.Join(dir, "single.shard"), CheckpointEvery: 2, Compact: single,
		})
		src.Close()
		dist := filepath.Join(dir, "dist.v4")
		derr := distributedIngest(corpus, dir, opts, w, p, spill, dist)
		if perr != nil {
			if serr == nil || derr == nil {
				t.Fatalf("unparsable input (%v) mined: single %v, distributed %v", perr, serr, derr)
			}
			return
		}
		if serr != nil {
			t.Fatalf("single-process ingest: %v", serr)
		}
		if len(trees) == 0 {
			return // a plan needs trees; the single-process run has nothing to compare
		}
		if derr != nil {
			t.Fatalf("distributed ingest: %v", derr)
		}
		sameFile(t, "distributed v4", single, dist)
		checkV4(t, mustRead(t, single), wantV4(trees, nil, opts))
	})
}

// distributedIngest runs plan → workers → merge over corpus: the
// -plan, -worker [-max-resident] and -merge -compact sequence.
func distributedIngest(corpus, dir string, opts core.ForestOptions, workers, parts, spill int, out string) error {
	total, err := phyloio.CountTrees([]string{corpus}, nil)
	if err != nil {
		return err
	}
	m, err := NewManifest([]string{corpus}, total, parts, opts)
	if err != nil {
		return err
	}
	if err := m.Save(filepath.Join(dir, "plan.json")); err != nil {
		return err
	}
	for _, p := range m.Partitions {
		src := phyloio.OpenTreesRange(m.Inputs, nil, p.Skip, p.Trees)
		_, _, err := Mine(context.Background(), src, opts, MineConfig{
			Workers: workers, Shard: m.ShardPath(p.Index), SpillEntries: spill, Trees: p.Trees,
		})
		src.Close()
		if err != nil {
			return err
		}
	}
	_, _, err = Merge(m, false, out)
	return err
}
