package store

import (
	"context"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"treemine/internal/core"
	"treemine/internal/phyloio"
	"treemine/internal/tree"
)

// The benchmark harness's hand-written ingest sequences (perfbench's
// ingest.go), copied verbatim below this header as the oracle Mine and
// Merge are held to byte for byte. Only the package qualifier of store
// names is dropped and the function renamed; workload, ingestReport and
// peakRSSKiB are the minimal stand-ins for the harness's own types.

// workload is the part of a perfbench workload the ingest reads.
type workload struct {
	opts         core.ForestOptions
	spillEntries int
}

// ingestReport is what one ingest process tells the orchestrator.
type ingestReport struct {
	WallS  float64
	Trees  int
	RSSKiB int64
	Layers *layerTimes
}

func peakRSSKiB() (int64, error) { return 0, nil }

// layerTimes splits one traced ingest by layer. Every duration is
// measured from outside, around calls into the layer's public API.
type layerTimes struct {
	ParseS       float64 `json:"parse_s"`      // inside TreeIterator.Next
	MineS        float64 `json:"mine_s"`       // stream wall minus parse, AfterRound and checkpoint time
	SpillS       float64 `json:"spill_s"`      // inside AfterRound (drain + segment write)
	CheckpointS  float64 `json:"checkpoint_s"` // SaveShard or Finish
	FoldS        float64 `json:"fold_s"`       // FoldShardFile
	CompactS     float64 `json:"compact_s"`    // CompactShardV4
	Rounds       int     `json:"rounds"`
	Segments     int     `json:"segments"` // spill segments, read before Finish
	Pairs        int     `json:"pairs"`
	InputBytes   int64   `json:"input_bytes"`
	SpillBytes   int64   `json:"spill_bytes"`
	WrittenBytes int64   `json:"written_bytes"` // spill + shard + checkpoint + index
	IndexBytes   int64   `json:"index_bytes"`
}

// attributed is the sum of the layer times.
func (l *layerTimes) attributed() float64 {
	return l.ParseS + l.MineS + l.SpillS + l.CheckpointS + l.FoldS + l.CompactS
}

// timedIter accumulates the time spent inside Next.
type timedIter struct {
	it core.TreeIterator
	d  *float64
}

func (t *timedIter) Next() (*tree.Tree, error) {
	start := time.Now()
	tr, err := t.it.Next()
	*t.d += time.Since(start).Seconds()
	return tr, err
}

// perfbenchIngest turns the Newick corpus at in into a durable v4 index at out,
// in the call sequence of `cousinmine -stream -checkpoint F -compact
// OUT` (one final checkpoint) or, for a spill workload, of `cousinmine
// -worker -max-resident` followed by `-merge -compact`. Intermediate
// files go to dir. With traced set, every layer call is timed.
func perfbenchIngest(w workload, in, out, dir string, traced bool) (*ingestReport, error) {
	var lt layerTimes
	timed := func(d *float64, f func() error) error {
		if !traced {
			return f()
		}
		start := time.Now()
		err := f()
		*d += time.Since(start).Seconds()
		return err
	}

	start := time.Now()
	src := phyloio.OpenTrees([]string{in}, nil)
	defer src.Close()
	var it core.TreeIterator = src
	if traced {
		it = &timedIter{it: src, d: &lt.ParseS}
	}

	cfg := core.StreamConfig{Workers: 1}
	var acc *SpillAccumulator
	spillDir := filepath.Join(dir, "spill")
	ckptPath := filepath.Join(dir, "run.shard")
	var streamCkptS float64 // checkpoint time spent inside the stream
	if w.spillEntries > 0 {
		if err := os.MkdirAll(spillDir, 0o777); err != nil {
			return nil, err
		}
		sh := core.NewSupportShard(w.opts)
		var err error
		if acc, err = NewSpillAccumulator(sh, w.spillEntries, spillDir); err != nil {
			return nil, err
		}
		cfg.Resume = sh
		cfg.AfterRound = acc.AfterRound
	} else {
		// One checkpoint, at the end of the stream.
		cfg.CheckpointEvery = math.MaxInt
		cfg.Checkpoint = func(sh *core.SupportShard) error {
			return timed(&streamCkptS, func() error { return saveShard(ckptPath, sh) })
		}
	}
	if traced {
		after := cfg.AfterRound
		cfg.AfterRound = func(sh *core.SupportShard) error {
			lt.Rounds++
			if after == nil {
				return nil
			}
			return timed(&lt.SpillS, func() error { return after(sh) })
		}
	}

	streamStart := time.Now()
	sh, err := core.MineForestStreamShardCtx(context.Background(), it, w.opts, cfg)
	streamS := time.Since(streamStart).Seconds()
	if err != nil {
		return nil, err
	}
	trees := sh.Trees()

	final := sh
	if acc != nil {
		lt.Segments = acc.Segments()
		if traced {
			if lt.SpillBytes, err = dirBytes(spillDir); err != nil {
				return nil, err
			}
		}
		workerShard := filepath.Join(dir, "worker.shard")
		if err := timed(&lt.CheckpointS, func() error { return acc.Finish(workerShard) }); err != nil {
			return nil, err
		}
		master := core.NewSupportShard(w.opts)
		if err := timed(&lt.FoldS, func() error {
			_, err := FoldShardFile(master, workerShard)
			return err
		}); err != nil {
			return nil, err
		}
		if err := timed(&lt.CheckpointS, func() error { return saveShard(ckptPath, master) }); err != nil {
			return nil, err
		}
		if traced {
			if lt.WrittenBytes, err = fileBytes(workerShard); err != nil {
				return nil, err
			}
		}
		final = master
	}
	if err := timed(&lt.CompactS, func() error { return CompactShardV4(out, final) }); err != nil {
		return nil, err
	}
	rep := &ingestReport{WallS: time.Since(start).Seconds(), Trees: trees}
	if rep.RSSKiB, err = peakRSSKiB(); err != nil {
		return nil, err
	}
	if traced {
		lt.CheckpointS += streamCkptS
		lt.MineS = streamS - lt.ParseS - lt.SpillS - streamCkptS
		lt.Pairs = final.Len()
		for _, p := range []struct {
			path string
			dst  *int64
		}{{in, &lt.InputBytes}, {out, &lt.IndexBytes}} {
			if *p.dst, err = fileBytes(p.path); err != nil {
				return nil, err
			}
		}
		ck, err := fileBytes(ckptPath)
		if err != nil {
			return nil, err
		}
		lt.WrittenBytes += lt.SpillBytes + ck + lt.IndexBytes
		rep.Layers = &lt
	}
	return rep, nil
}

// saveShard writes a v3 checkpoint durably, as cousinmine does.
func saveShard(path string, sh *core.SupportShard) error {
	return AtomicWrite(path, func(w io.Writer) error {
		return SaveShard(w, sh)
	})
}

func fileBytes(path string) (int64, error) {
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}
