package store

import (
	"fmt"

	"treemine/internal/core"
)

// PartitionError reports one partition whose shard could not be
// merged, with enough structure for callers to format repair guidance.
type PartitionError struct {
	// Index is the manifest partition index.
	Index int
	// TreesGot is the tree tally the shard claims, or -1 when the
	// shard is missing or unreadable.
	TreesGot int
	// TreesWant is the tally the plan assigned.
	TreesWant int
	// Err is the underlying failure; nil when the shard is valid but
	// covers the wrong tree count.
	Err error
}

func (e *PartitionError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("partition %d: %v", e.Index, e.Err)
	}
	return fmt.Sprintf("partition %d: shard covers %d trees, plan assigned %d", e.Index, e.TreesGot, e.TreesWant)
}

func (e *PartitionError) Unwrap() error { return e.Err }

// FoldReport summarizes a manifest fold: which partitions merged and,
// under keepGoing, which did not and why.
type FoldReport struct {
	// TreesTotal is the corpus size the plan covers.
	TreesTotal int
	// TreesMerged is the tally actually folded into the master.
	TreesMerged int
	// Merged lists the partition indexes folded, in order.
	Merged []int
	// Failed lists the partitions excluded from the fold; empty unless
	// keepGoing was set (without it the first failure aborts).
	Failed []*PartitionError
}

// Complete reports whether every partition folded.
func (r *FoldReport) Complete() bool { return len(r.Failed) == 0 }

// FoldManifestShards is the fold under Merge (DESIGN.md §52). It folds
// every partition's shard into master, verifying provenance (checksums,
// options, tree tally) before each fold, never after: a shard that
// fails must not touch the master, or a partial result would be
// silently wrong rather than honestly incomplete. Without keepGoing it
// stops at the first invalid partition, returning its *PartitionError
// (the report still describes what had folded by then). With keepGoing
// it folds every valid shard, collects the invalid partitions in the
// report, and returns a nil error — degradation is the caller's call
// to make, and the report carries the exact coverage.
func FoldManifestShards(master *core.SupportShard, m *Manifest, keepGoing bool) (*FoldReport, error) {
	rep := &FoldReport{TreesTotal: m.TotalTrees}
	for _, p := range m.Partitions {
		path := m.ShardPath(p.Index)
		pe := &PartitionError{Index: p.Index, TreesWant: p.Trees}
		// One validating pass, then the fold — and the fold only when
		// the shard covers the planned trees, so a bad shard leaves the
		// master clean.
		pe.TreesGot, pe.Err = scanShardFile(path, m.Options.ForestOptions(), master, p.Trees)
		if pe.Err == nil && pe.TreesGot == p.Trees {
			rep.Merged = append(rep.Merged, p.Index)
			rep.TreesMerged += p.Trees
			continue
		}
		if pe.Err != nil {
			pe.TreesGot = -1
		}
		rep.Failed = append(rep.Failed, pe)
		if !keepGoing {
			return rep, pe
		}
	}
	return rep, nil
}
