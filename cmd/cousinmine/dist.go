package main

// Distributed coordinator/worker mining (DESIGN.md §51–52, §58): the
// -plan, -worker, -merge and -distributed modes. Workers and merges run
// through store.Mine and store.Merge; the coordinator supervises worker
// processes through internal/coord.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"

	"treemine"
	"treemine/internal/coord"
	"treemine/internal/phyloio"
	"treemine/internal/store"
)

// absInputs resolves the corpus paths to absolute form — manifests
// record absolute inputs so workers can run from any directory.
func absInputs(files []string) ([]string, error) {
	abs := make([]string, len(files))
	for i, f := range files {
		a, err := filepath.Abs(f)
		if err != nil {
			return nil, err
		}
		abs[i] = a
	}
	return abs, nil
}

// runPlan counts the corpus and writes the partition manifest. Inputs
// must be files — workers re-open them by path, so stdin cannot be
// partitioned.
func runPlan(planPath string, files []string, parts int, fopts treemine.ForestOptions, stdout io.Writer) error {
	if len(files) == 0 {
		return fmt.Errorf("-plan requires file inputs (workers re-read the corpus by path; stdin cannot be partitioned)")
	}
	abs, err := absInputs(files)
	if err != nil {
		return err
	}
	total, err := phyloio.CountTrees(abs, nil)
	if err != nil {
		return err
	}
	if total == 0 {
		return fmt.Errorf("no input trees")
	}
	m, err := store.NewManifest(abs, total, parts, fopts)
	if err != nil {
		return err
	}
	if err := m.Save(planPath); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "planned %d trees into %d partitions\n", total, len(m.Partitions))
	for _, p := range m.Partitions {
		fmt.Fprintf(stdout, "partition %d: trees %d..%d -> %s\n", p.Index, p.Skip, p.Skip+p.Trees-1, p.Shard)
	}
	return nil
}

// spillBytesPerEntry is the resident cost the -max-resident budget is
// divided by: an 8-byte packed key, an 8-byte count, and the map
// bucket overhead around them.
const spillBytesPerEntry = 64

// runWorker mines one manifest partition to its shard file through
// store.Mine, spilling past a -max-resident budget. The write is
// atomic: a worker killed mid-range leaves no shard, which the merge
// reports as exactly that range needing a re-mine.
func runWorker(ctx context.Context, d *cliFlags, stdout io.Writer) error {
	if d.manifest == "" {
		return fmt.Errorf("-worker requires -manifest")
	}
	m, err := store.LoadManifest(d.manifest)
	if err != nil {
		return err
	}
	if d.worker >= len(m.Partitions) {
		return fmt.Errorf("partition %d out of range (manifest has %d)", d.worker, len(m.Partitions))
	}
	p := m.Partitions[d.worker]
	shardPath := m.ShardPath(d.worker)
	cfg := store.MineConfig{Workers: d.shards, Shard: shardPath, Trees: p.Trees}
	if d.maxResident != "" {
		budget, err := parseBytes(d.maxResident)
		if err != nil {
			return fmt.Errorf("-max-resident: %w", err)
		}
		if cfg.SpillEntries = int(budget / spillBytesPerEntry); cfg.SpillEntries < 1 {
			return fmt.Errorf("-max-resident %s is below one resident entry (~%d bytes)", d.maxResident, spillBytesPerEntry)
		}
	}

	src := phyloio.OpenTreesRange(m.Inputs, nil, p.Skip, p.Trees)
	defer src.Close()
	_, rep, err := store.Mine(ctx, src, m.Options.ForestOptions(), cfg)
	if errors.Is(err, store.ErrTreeCount) {
		return fmt.Errorf("worker %d mined %d trees, plan assigned %d — the corpus changed since -plan ran",
			p.Index, rep.Trees, p.Trees)
	}
	if err != nil {
		return fmt.Errorf("worker %d (trees %d..%d): %w", p.Index, p.Skip, p.Skip+p.Trees-1, err)
	}
	if rep.Cleanup != nil {
		// The shard is already durable; leftover segments only waste
		// disk, so report and carry on.
		fmt.Fprintf(os.Stderr, "cousinmine: warning: %v\n", rep.Cleanup)
	}
	spilled := ""
	if cfg.SpillEntries > 0 {
		spilled = fmt.Sprintf(" (%d spill segments)", rep.Segments)
	}
	fmt.Fprintf(os.Stderr, "cousinmine: worker %d mined trees %d..%d -> %s%s\n",
		p.Index, p.Skip, p.Skip+p.Trees-1, shardPath, spilled)
	return nil
}

// reMineCmd is the operator command that regenerates one partition's
// shard — printed by every failure path that names a gap.
func reMineCmd(manifestPath string, part int) string {
	return fmt.Sprintf("cousinmine -manifest %s -worker %d", manifestPath, part)
}

// runMerge folds every partition's shard into the master through
// store.Merge and prints its frequent pairs — byte-identical to a
// single-process run's output. A partition that fails provenance fails
// the merge with the -worker command that re-mines its range; under
// allowPartial it is excluded instead, and the exact coverage and each
// gap's re-mine command go to stderr.
func runMerge(manifestPath, format, compact string, allowPartial bool, stdout io.Writer) error {
	if manifestPath == "" {
		return fmt.Errorf("-merge requires -manifest")
	}
	m, err := store.LoadManifest(manifestPath)
	if err != nil {
		return err
	}
	master, rep, err := store.Merge(m, allowPartial, compact)
	var pe *store.PartitionError
	switch {
	case errors.As(err, &pe):
		p, again := m.Partitions[pe.Index], reMineCmd(manifestPath, pe.Index)
		if pe.Err != nil {
			return fmt.Errorf("partition %d (trees %d..%d): %w\nre-mine it with: %s",
				pe.Index, p.Skip, p.Skip+p.Trees-1, pe.Err, again)
		}
		return fmt.Errorf("partition %d shard covers %d trees, plan assigned %d\nre-mine it with: %s",
			pe.Index, pe.TreesGot, pe.TreesWant, again)
	case errors.Is(err, store.ErrNothingMerged):
		return fmt.Errorf("-allow-partial: no partition shard is valid, nothing to merge (mine them with: %s ...)",
			reMineCmd(manifestPath, 0))
	case err != nil:
		return err
	}
	if fold := rep.Partitions; !fold.Complete() {
		fmt.Fprintf(os.Stderr, "cousinmine: PARTIAL merge: %d/%d trees covered (%d of %d partitions)\n",
			fold.TreesMerged, fold.TreesTotal, len(fold.Merged), len(m.Partitions))
		for _, pe := range fold.Failed {
			p := m.Partitions[pe.Index]
			reason := pe.Err
			if reason == nil {
				reason = fmt.Errorf("shard covers %d trees, plan assigned %d", pe.TreesGot, pe.TreesWant)
			}
			fmt.Fprintf(os.Stderr, "cousinmine: partition %d (trees %d..%d) excluded: %v\n  re-mine it with: %s\n",
				pe.Index, p.Skip, p.Skip+p.Trees-1, reason, reMineCmd(manifestPath, pe.Index))
		}
		fmt.Fprintf(os.Stderr, "cousinmine: wrote partial master %s; after re-mining the gaps, rerun: cousinmine -merge -manifest %s\n",
			m.PartialPath(), manifestPath)
		if compact != "" {
			// A partial v4 index would look complete to cousinserve; Merge
			// wrote none rather than serve silently-wrong supports.
			fmt.Fprintf(os.Stderr, "cousinmine: skipping -compact %s: the merge is partial\n", compact)
		}
	} else if compact != "" {
		fmt.Fprintf(os.Stderr, "cousinmine: wrote v4 index %s (%d trees)\n", compact, master.Trees())
	}
	return emitMulti(stdout, format, master.Finalize(m.Options.MinSup), master.Trees())
}

// runDistributed is the end-to-end convenience: plan into a work
// directory, supervise one OS process per partition attempt through
// internal/coord, then merge. The work directory is temporary unless
// -workdir names one to keep; a temporary directory is removed only
// after full success — on failure (or a partial merge) it is kept and
// its path printed, because its shards and coordinator journal are
// exactly what a repair or resume needs. Rerunning with the same
// -workdir resumes: the existing plan is reused (after checking it
// describes this corpus and these options) and partitions whose shards
// already verify are skipped.
func runDistributed(ctx context.Context, d *cliFlags, files []string, fopts treemine.ForestOptions, stdout io.Writer) (retErr error) {
	workdir := d.workdir
	temp := false
	if workdir == "" {
		var err error
		workdir, err = os.MkdirTemp("", "cousinmine-dist-*")
		if err != nil {
			return err
		}
		temp = true
	} else if err := os.MkdirAll(workdir, 0o777); err != nil {
		return err
	}
	keep := false // set when a partial merge leaves repair state behind
	defer func() {
		if !temp {
			return
		}
		if retErr != nil || keep {
			fmt.Fprintf(os.Stderr, "cousinmine: keeping work directory %s (worker shards and coordinator journal preserved for repair)\n", workdir)
			return
		}
		if err := os.RemoveAll(workdir); err != nil {
			fmt.Fprintf(os.Stderr, "cousinmine: warning: cannot remove work directory %s: %v\n", workdir, err)
		}
	}()

	// Plan — or resume an existing plan, guarded so a stale plan for a
	// different corpus or different options can never shape this run.
	planPath := filepath.Join(workdir, "plan.json")
	var m *store.Manifest
	if _, err := os.Stat(planPath); err == nil {
		m, err = store.LoadManifest(planPath)
		if err != nil {
			return fmt.Errorf("resume: %w", err)
		}
		abs, err := absInputs(files)
		if err != nil {
			return err
		}
		if err := m.Describes(abs, fopts); err != nil {
			return fmt.Errorf("work directory %s holds a plan for a different job: %w\nuse a fresh -workdir (or delete %s) to replan", workdir, err, planPath)
		}
		fmt.Fprintf(os.Stderr, "cousinmine: resuming plan %s (%d partitions)\n", planPath, len(m.Partitions))
	} else {
		if err := runPlan(planPath, files, d.distributed, fopts, io.Discard); err != nil {
			return err
		}
		if m, err = store.LoadManifest(planPath); err != nil {
			return err
		}
	}
	opts := m.Options.ForestOptions()

	exe, err := os.Executable()
	if err != nil {
		return err
	}
	runner := coord.RunnerFunc(func(rctx context.Context, part, attempt int) error {
		args := []string{"-manifest", planPath, "-worker", strconv.Itoa(part)}
		if d.maxResident != "" {
			args = append(args, "-max-resident", d.maxResident)
		}
		if d.shards != 0 {
			args = append(args, "-shards", strconv.Itoa(d.shards))
		}
		cmd := exec.CommandContext(rctx, exe, args...)
		cmd.Stderr = os.Stderr
		return cmd.Run()
	})
	res, err := coord.Supervise(ctx, coord.Config{
		Partitions:      len(m.Partitions),
		Workers:         d.distWorkers,
		Retries:         d.retries,
		Backoff:         d.backoff,
		Timeout:         d.attemptTimeout,
		StragglerFactor: d.stragglerFactor,
		Completed: func(part int) bool {
			trees, verr := store.VerifyShardFile(m.ShardPath(part), opts)
			return verr == nil && trees == m.Partitions[part].Trees
		},
		Journal:  filepath.Join(workdir, "coordinator.json"),
		Manifest: planPath,
		Log:      os.Stderr,
	}, runner)
	if res != nil {
		printSupervisionSummary(os.Stderr, res)
	}
	if err != nil {
		return err
	}

	if len(res.Quarantined) > 0 && !d.allowPartial {
		// Satellite of the supervision contract: every failed partition is
		// named, with its re-mine command, in one aggregated error.
		errs := make([]error, 0, len(res.Quarantined))
		for _, i := range res.Quarantined {
			p := m.Partitions[i]
			errs = append(errs, fmt.Errorf("partition %d (trees %d..%d) quarantined after %d attempts: %w\nre-mine it with: %s",
				i, p.Skip, p.Skip+p.Trees-1, len(res.Partitions[i].Attempts), res.Partitions[i].Err, reMineCmd(planPath, i)))
		}
		return errors.Join(errs...)
	}
	if len(res.Quarantined) > 0 {
		// Partial path: the merge below degrades, and the work directory
		// survives for repair even when it was auto-created.
		keep = true
	}
	return runMerge(planPath, d.format, d.compact, d.allowPartial, stdout)
}

// printSupervisionSummary renders the coordinator's per-partition
// outcome table to the log.
func printSupervisionSummary(w io.Writer, res *coord.Result) {
	fmt.Fprintf(w, "cousinmine: supervision summary (%d partitions):\n", len(res.Partitions))
	for i, p := range res.Partitions {
		detail := fmt.Sprintf("%d attempt(s)", len(p.Attempts))
		if p.Skipped {
			detail = "skipped, valid shard present"
		}
		if spec := countSpeculative(p.Attempts); spec > 0 {
			detail += fmt.Sprintf(", %d speculative", spec)
		}
		fmt.Fprintf(w, "cousinmine:   partition %d: %s (%s)\n", i, p.State, detail)
	}
}

func countSpeculative(atts []store.Attempt) int {
	n := 0
	for _, a := range atts {
		if a.Speculative {
			n++
		}
	}
	return n
}

// parseBytes parses a byte size with an optional K/M/G suffix (powers
// of 1024).
func parseBytes(s string) (int64, error) {
	mult := int64(1)
	t := strings.ToUpper(strings.TrimSpace(s))
	switch {
	case strings.HasSuffix(t, "K"):
		mult, t = 1<<10, t[:len(t)-1]
	case strings.HasSuffix(t, "M"):
		mult, t = 1<<20, t[:len(t)-1]
	case strings.HasSuffix(t, "G"):
		mult, t = 1<<30, t[:len(t)-1]
	}
	n, err := strconv.ParseInt(t, 10, 64)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("bad size %q (want a positive integer with optional K/M/G suffix)", s)
	}
	if n > math.MaxInt64/mult {
		return 0, fmt.Errorf("size %q overflows", s)
	}
	return n * mult, nil
}
