// Command cousinmine mines cousin pairs from phylogenies in Newick
// format, implementing the paper's Single_Tree_Mining and
// Multiple_Tree_Mining front to back.
//
// Usage:
//
//	cousinmine [flags] [file.nwk ...]
//
// With no files, trees are read from standard input. Each input may
// contain any number of semicolon-terminated Newick trees.
//
// Modes:
//
//	-mode single   print the cousin pair items of every tree (default)
//	-mode multi    print the cousin pairs frequent across all trees
//
// Flags mirror the paper's parameters: -maxdist (default 1.5), -minoccur
// (default 1), -minsup (default 2, multi mode), -ignoredist (wildcard the
// distance when counting support).
//
// Streaming (multi mode): -stream mines the inputs without materializing
// the forest, so corpora larger than memory work; -shards sets the
// worker count (0 = all CPUs); -checkpoint FILE persists the partial
// support shard to FILE (atomically, every -checkpoint-every trees) and
// resumes from it when the file already exists, skipping the trees it
// has already folded in. The output is byte-identical to the
// non-streamed run. -compact FILE additionally writes the final mined
// shard as a v4 zero-copy index (the format cousinserve memory-maps for
// O(1) startup).
//
// Distributed mining splits a corpus by tree range across worker
// processes (see DESIGN.md §51–52): -plan FILE -parts N writes a
// partition manifest; -worker I -manifest FILE mines partition I to its
// shard, spilling to disk past an optional -max-resident budget; -merge
// -manifest FILE folds the worker shards into the master and prints its
// frequent pairs — byte-identical to a single-process run; -distributed
// N runs the whole pipeline under a supervising coordinator:
// -dist-workers bounds the process pool, failed workers retry with
// exponential backoff (-retries, -backoff), -attempt-timeout reaps hung
// workers, stragglers are speculatively re-executed
// (-straggler-factor), and rerunning with the same -workdir resumes,
// re-mining only partitions whose shards don't verify. -allow-partial
// degrades a merge with invalid shards instead of failing: the valid
// ranges merge exactly, and every gap is named with its re-mine
// command.
//
// Each mode — batch, stream, plan, worker, merge, distributed — reads a
// fixed set of flags (modeFlags); setting any other flag is an error.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"treemine"
	"treemine/internal/benchutil"
	"treemine/internal/phyloio"
	"treemine/internal/sigctx"
	"treemine/internal/store"
)

func main() {
	ctx, stop := sigctx.WithSignals(context.Background())
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cousinmine:", err)
		if errors.Is(err, context.Canceled) {
			// Interrupted but drained: the checkpoint (if configured) holds
			// an exact prefix of the stream, so rerunning the same command
			// resumes where this run stopped.
			os.Exit(130)
		}
		os.Exit(1)
	}
}

// modeFlags lists every flag each mode reads, the flag that selects the
// mode included. run rejects any other flag set on the command line, so
// a flag a mode would ignore is an error, never a silent no-op.
var modeFlags = map[string][]string{
	"batch":       {"mode", "maxdist", "minoccur", "minsup", "ignoredist", "format"},
	"stream":      {"stream", "mode", "maxdist", "minoccur", "minsup", "ignoredist", "format", "shards", "checkpoint", "checkpoint-every", "compact"},
	"plan":        {"plan", "parts", "maxdist", "minoccur", "minsup", "ignoredist"},
	"worker":      {"worker", "manifest", "shards", "max-resident"},
	"merge":       {"merge", "manifest", "format", "compact", "allow-partial"},
	"distributed": {"distributed", "workdir", "maxdist", "minoccur", "minsup", "ignoredist", "format", "compact", "shards", "max-resident", "dist-workers", "retries", "backoff", "attempt-timeout", "straggler-factor", "allow-partial"},
}

// cliFlags holds every flag value of one run; modeFlags says which of
// them each mode reads.
type cliFlags struct {
	mode, maxDist, format, checkpoint, compact string
	plan, manifest, workdir, maxResident       string
	minOccur, minSup, shards, ckptEvery, parts int
	worker, distributed, distWorkers, retries  int
	ignoreDist, stream, merge, allowPartial    bool
	backoff, attemptTimeout                    time.Duration
	stragglerFactor                            float64
}

// newFlagSet defines cousinmine's flags, bound to the fields of the
// returned cliFlags.
func newFlagSet(stdout io.Writer) (*flag.FlagSet, *cliFlags) {
	fs := flag.NewFlagSet("cousinmine", flag.ContinueOnError)
	fs.SetOutput(stdout)
	f := &cliFlags{}
	fs.StringVar(&f.mode, "mode", "single", "mining mode: single (per-tree items) or multi (frequent pairs)")
	fs.StringVar(&f.maxDist, "maxdist", "1.5", "maximum cousin distance (multiple of 0.5)")
	fs.IntVar(&f.minOccur, "minoccur", 1, "minimum within-tree occurrences")
	fs.IntVar(&f.minSup, "minsup", 2, "minimum cross-tree support (multi mode)")
	fs.BoolVar(&f.ignoreDist, "ignoredist", false, "count support ignoring cousin distance (multi mode)")
	fs.StringVar(&f.format, "format", "table", "output format: table or json")
	fs.BoolVar(&f.stream, "stream", false, "mine without materializing the forest (multi mode)")
	fs.IntVar(&f.shards, "shards", 0, "streaming worker count; 0 uses all CPUs")
	fs.StringVar(&f.checkpoint, "checkpoint", "", "shard checkpoint file: written during -stream runs, resumed from when present")
	fs.IntVar(&f.ckptEvery, "checkpoint-every", 500, "trees mined between checkpoint writes")
	fs.StringVar(&f.compact, "compact", "", "also write the mined shard as a v4 zero-copy index to this file (-stream, -merge or -distributed)")
	fs.StringVar(&f.plan, "plan", "", "write a distributed-mining partition manifest to this file (requires file inputs)")
	fs.IntVar(&f.parts, "parts", 2, "partition count for -plan")
	fs.IntVar(&f.worker, "worker", -1, "mine one partition (by index) of -manifest to its shard file")
	fs.StringVar(&f.manifest, "manifest", "", "partition manifest consumed by -worker and -merge")
	fs.BoolVar(&f.merge, "merge", false, "fold the worker shards named by -manifest into the master shard and print its frequent pairs")
	fs.IntVar(&f.distributed, "distributed", 0, "run plan -> N local worker processes -> merge end to end")
	fs.StringVar(&f.workdir, "workdir", "", "work directory for -distributed (default: a temp dir, removed on success)")
	fs.StringVar(&f.maxResident, "max-resident", "", "worker resident-memory budget (e.g. 64M); past it support counts spill to sorted disk segments")
	fs.IntVar(&f.distWorkers, "dist-workers", 0, "concurrent worker processes for -distributed; 0 uses all CPUs")
	fs.IntVar(&f.retries, "retries", 3, "per-partition retry budget for -distributed supervision")
	fs.DurationVar(&f.backoff, "backoff", 250*time.Millisecond, "initial retry backoff for -distributed; doubles per retry, with deterministic jitter")
	fs.DurationVar(&f.attemptTimeout, "attempt-timeout", 0, "per-attempt timeout for -distributed workers; 0 disables")
	fs.Float64Var(&f.stragglerFactor, "straggler-factor", 3, "speculatively re-execute a -distributed worker past this multiple of the median attempt duration; 0 disables")
	fs.BoolVar(&f.allowPartial, "allow-partial", false, "degrade instead of failing: merge the valid shards, report exact coverage and the re-mine command for each gap")
	return fs, f
}

// modeOf names the mode the parsed flags select — one of the
// distributed modes, else stream or batch — and rejects the first flag
// set, in lexical order, that the mode does not read.
func modeOf(fs *flag.FlagSet, f *cliFlags) (mode string, err error) {
	on := map[string]bool{"plan": f.plan != "", "worker": f.worker >= 0, "merge": f.merge, "distributed": f.distributed > 0}
	mode, n := "batch", 0
	if f.stream {
		mode = "stream"
	}
	for name, sel := range on {
		if sel {
			mode, n = name, n+1
		}
	}
	if n > 1 {
		return "", fmt.Errorf("-plan, -worker, -merge, and -distributed are mutually exclusive")
	}
	fs.Visit(func(fl *flag.Flag) {
		if err == nil && !slices.Contains(modeFlags[mode], fl.Name) {
			err = fmt.Errorf("-%s is not read in %s mode; drop -%s", fl.Name, mode, fl.Name)
		}
	})
	return mode, err
}

func run(ctx context.Context, args []string, stdin io.Reader, stdout io.Writer) error {
	fs, f := newFlagSet(stdout)
	if err := fs.Parse(args); err != nil {
		return err
	}
	mode, err := modeOf(fs, f)
	if err != nil {
		return err
	}
	if f.format != "table" && f.format != "json" {
		return fmt.Errorf("unknown format %q (want table or json)", f.format)
	}

	d, err := treemine.ParseDist(f.maxDist)
	if err != nil {
		return err
	}
	if d.IsWild() {
		return fmt.Errorf("-maxdist must be a concrete distance, not %q", f.maxDist)
	}
	opts := treemine.Options{MaxDist: d, MinOccur: f.minOccur}
	fopts := treemine.ForestOptions{Options: opts, MinSup: f.minSup, IgnoreDist: f.ignoreDist}

	switch mode {
	case "plan":
		return runPlan(f.plan, fs.Args(), f.parts, fopts, stdout)
	case "worker":
		return runWorker(ctx, f, stdout)
	case "merge":
		return runMerge(f.manifest, f.format, f.compact, f.allowPartial, stdout)
	case "distributed":
		return runDistributed(ctx, f, fs.Args(), fopts, stdout)
	case "stream":
		if f.mode != "multi" {
			return fmt.Errorf("-stream requires -mode multi")
		}
		// The bounded-memory pipeline: with -checkpoint, an interrupted run
		// flushes the shard mined so far, and rerunning resumes from it.
		src := phyloio.OpenTrees(fs.Args(), stdin)
		defer src.Close()
		sh, rep, err := store.Mine(ctx, src, fopts, store.MineConfig{
			Workers: f.shards, Checkpoint: f.checkpoint, CheckpointEvery: f.ckptEvery, Compact: f.compact,
		})
		if errors.Is(err, context.Canceled) && f.checkpoint != "" {
			fmt.Fprintf(os.Stderr, "cousinmine: interrupted after %d trees; checkpoint %s is resumable\n",
				rep.Trees, f.checkpoint)
		}
		if err != nil {
			return err
		}
		if f.compact != "" {
			fmt.Fprintf(os.Stderr, "cousinmine: wrote v4 index %s (%d trees)\n", f.compact, sh.Trees())
		}
		if sh.Trees() == 0 {
			return fmt.Errorf("no input trees")
		}
		return emitMulti(stdout, f.format, sh.Finalize(fopts.MinSup), sh.Trees())
	}

	trees, err := phyloio.ReadTrees(fs.Args(), stdin)
	if err != nil {
		return err
	}
	if len(trees) == 0 {
		return fmt.Errorf("no input trees")
	}

	switch f.mode {
	case "single":
		type treeItems struct {
			Tree  int             `json:"tree"`
			Nodes int             `json:"nodes"`
			Items []treemine.Item `json:"items"`
		}
		var all []treeItems
		for i, t := range trees {
			items := treemine.Mine(t, opts)
			if f.format == "json" {
				all = append(all, treeItems{Tree: i + 1, Nodes: t.Size(), Items: items.Items()})
				continue
			}
			fmt.Fprintf(stdout, "# tree %d (%d nodes)\n", i+1, t.Size())
			tb := benchutil.NewTable("label1", "label2", "dist", "occur")
			for _, it := range items.Items() {
				tb.AddRow(it.Key.A, it.Key.B, it.Key.D.String(), it.Occur)
			}
			tb.Fprint(stdout)
			fmt.Fprintln(stdout)
		}
		if f.format == "json" {
			return writeJSON(stdout, all)
		}
	case "multi":
		fp := treemine.MineForest(trees, fopts)
		return emitMulti(stdout, f.format, fp, len(trees))
	default:
		return fmt.Errorf("unknown mode %q (want single or multi)", f.mode)
	}
	return nil
}

// emitMulti prints multi-mode results; the streamed and materialized
// paths share it, so their outputs are byte-identical.
func emitMulti(stdout io.Writer, format string, fp []treemine.FrequentPair, nTrees int) error {
	if format == "json" {
		return writeJSON(stdout, fp)
	}
	tb := benchutil.NewTable("label1", "label2", "dist", "support")
	for _, p := range fp {
		tb.AddRow(p.Key.A, p.Key.B, p.Key.D.String(), p.Support)
	}
	tb.Fprint(stdout)
	fmt.Fprintf(stdout, "\n%d frequent pairs across %d trees\n", len(fp), nTrees)
	return nil
}

func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
