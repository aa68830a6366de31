package store

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"treemine/internal/core"
)

// The ingest pipeline (DESIGN.md §58). Mine runs one tree stream — a
// whole corpus or one worker's range — into a shard file; Merge folds a
// manifest's worker shards into the master. Every cousinmine mode that
// writes a shard, master or v4 index is a thin caller of one of them.

var (
	// ErrTreeCount: the stream yielded a count other than
	// MineConfig.Trees, and no shard was written.
	ErrTreeCount = errors.New("store: mine: stream tree count differs from the plan")
	// ErrNothingMerged: a partial merge found no valid shard, and no
	// master was written.
	ErrNothingMerged = errors.New("store: merge: no partition shard is valid")
)

// MineConfig names what Mine writes; each field is a cousinmine flag
// or a worker's manifest partition.
type MineConfig struct {
	Workers int // stream workers; ≤ 0 selects GOMAXPROCS
	// Checkpoint is resumed from when it exists, rewritten every
	// CheckpointEvery trees (> 0) and at the end of the stream, and
	// flushed once more on cancellation.
	Checkpoint      string
	CheckpointEvery int
	// Shard is a worker's shard, written once after the stream. With
	// SpillEntries > 0, counts past that many resident entries spill to
	// segments in Shard+".spill" and Finish merges them into Shard.
	Shard        string
	SpillEntries int
	Trees        int    // > 0: the count the stream must yield
	Compact      string // v4 index of the complete result
}

// Stage is one store stage's wall time and the bytes it wrote (for
// Fold, the shard bytes it read).
type Stage struct {
	Wall  time.Duration
	Bytes int64
}

// Report is what one Mine or Merge call did, as far as it got. Wall is
// the whole call, parsing included. Shard is checkpoints, the one shard
// write or Finish; Fold verifies and folds worker shards.
type Report struct {
	Trees, Rounds, Segments             int
	Wall                                time.Duration
	Spill, Shard, Fold, Master, Compact Stage
	Partitions                          *FoldReport // Merge only
	// Cleanup is a spill directory left behind after Finish made the
	// shard durable: wasted disk, not a failed mine.
	Cleanup error
}

// run times f into s and, when it succeeds, adds path's size.
func (s *Stage) run(path string, f func() error) error {
	start := time.Now()
	err := f()
	s.Wall += time.Since(start)
	if st, serr := os.Stat(path); err == nil && serr == nil {
		s.Bytes += st.Size()
	}
	return err
}

// Mine mines the trees it yields under opts into the files cfg names
// and returns the shard, or nil when its counts were spilled to
// cfg.Shard.
func Mine(ctx context.Context, it core.TreeIterator, opts core.ForestOptions, cfg MineConfig) (sh *core.SupportShard, rep *Report, err error) {
	start, rep := time.Now(), &Report{}
	defer func() { rep.Wall = time.Since(start) }()
	if cfg.Checkpoint != "" && cfg.Shard != "" || cfg.SpillEntries > 0 && (cfg.Shard == "" || cfg.Compact != "") {
		return nil, rep, errors.New("store: mine: a run writes a checkpoint or a shard; only a shard spills, and never compacts")
	}
	out := cfg.Checkpoint + cfg.Shard
	save := func(sh *core.SupportShard) error {
		return rep.Shard.run(out, func() error { return writeShard(out, sh) })
	}
	scfg := core.StreamConfig{Workers: cfg.Workers}
	var acc *SpillAccumulator
	spillDir := cfg.Shard + ".spill"
	if cfg.Checkpoint != "" {
		if scfg.Resume, err = loadShardFile(out); err == nil {
			scfg.SkipTrees = scfg.Resume.Trees()
		} else if !errors.Is(err, os.ErrNotExist) {
			return nil, rep, fmt.Errorf("resume %s: %w", out, err)
		}
		scfg.CheckpointEvery, scfg.Checkpoint = cfg.CheckpointEvery, save
	} else if cfg.SpillEntries > 0 {
		scfg.Resume = core.NewSupportShard(opts)
		if err = os.MkdirAll(spillDir, 0o777); err == nil {
			acc, err = NewSpillAccumulator(scfg.Resume, cfg.SpillEntries, spillDir)
		}
		if err != nil {
			return nil, rep, err
		}
	}
	scfg.AfterRound = func(sh *core.SupportShard) error {
		rep.Rounds++
		if acc == nil {
			return nil
		}
		return rep.Spill.run("", func() error { return acc.AfterRound(sh) })
	}

	sh, err = core.MineForestStreamShardCtx(ctx, it, opts, scfg)
	if sh != nil {
		rep.Trees = sh.Trees()
	}
	if acc != nil {
		rep.Segments, rep.Spill.Bytes = acc.Segments(), acc.spilled
	}
	switch {
	case errors.Is(err, context.Canceled) && cfg.Checkpoint != "" && sh != nil:
		if werr := save(sh); werr != nil {
			return nil, rep, fmt.Errorf("final checkpoint after interrupt: %w", werr)
		}
		return nil, rep, err
	case err != nil:
		return nil, rep, err
	case cfg.Trees > 0 && sh.Trees() != cfg.Trees:
		return nil, rep, fmt.Errorf("%w: mined %d trees, want %d", ErrTreeCount, sh.Trees(), cfg.Trees)
	case acc != nil:
		if err := rep.Shard.run(out, func() error { return acc.Finish(out) }); err != nil {
			return nil, rep, err
		}
		if err := os.RemoveAll(spillDir); err != nil {
			rep.Cleanup = fmt.Errorf("cannot remove spill directory %s: %w", spillDir, err)
		}
		return nil, rep, nil
	case cfg.Shard != "":
		if err := save(sh); err != nil {
			return nil, rep, err
		}
	}
	// The index is written only now, atomically, so an interrupted run
	// leaves any previous one intact and never a torn one.
	return sh, rep, compactTo(&rep.Compact, cfg.Compact, sh)
}

// Merge folds m's partition shards into a fresh master (checking each
// one's provenance first, see FoldManifestShards), writes the master
// beside the manifest, and compacts a complete merge to the v4 index
// named by compact, if any. The first invalid partition fails the
// merge with its *PartitionError unless allowPartial is set; then every
// valid shard is folded, the master is written to m.PartialPath(), and
// nothing is compacted.
func Merge(m *Manifest, allowPartial bool, compact string) (master *core.SupportShard, rep *Report, err error) {
	start, rep := time.Now(), &Report{}
	defer func() { rep.Wall = time.Since(start) }()
	master = core.NewSupportShard(m.Options.ForestOptions())
	err = rep.Fold.run("", func() (err error) {
		rep.Partitions, err = FoldManifestShards(master, m, allowPartial)
		return err
	})
	rep.Trees = master.Trees()
	for _, i := range rep.Partitions.Merged {
		if st, serr := os.Stat(m.ShardPath(i)); serr == nil {
			rep.Fold.Bytes += st.Size()
		}
	}
	path := m.MasterPath()
	switch {
	case err != nil:
		return nil, rep, err
	case len(rep.Partitions.Merged) == 0:
		return nil, rep, ErrNothingMerged
	case !rep.Partitions.Complete():
		path, compact = m.PartialPath(), ""
	case master.Trees() != m.TotalTrees:
		return nil, rep, fmt.Errorf("merged master covers %d trees, corpus has %d", master.Trees(), m.TotalTrees)
	}
	if err := rep.Master.run(path, func() error { return writeShard(path, master) }); err != nil {
		return nil, rep, err
	}
	return master, rep, compactTo(&rep.Compact, compact, master)
}

// compactTo writes sh as the v4 index at path, if any, timed into s.
func compactTo(s *Stage, path string, sh *core.SupportShard) error {
	if path == "" {
		return nil
	}
	if err := s.run(path, func() error { return CompactShardV4(path, sh) }); err != nil {
		return fmt.Errorf("compact %s: %w", path, err)
	}
	return nil
}
