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
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
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

func run(ctx context.Context, args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("cousinmine", flag.ContinueOnError)
	fs.SetOutput(stdout)
	df := &distFlags{}
	mode := fs.String("mode", "single", "mining mode: single (per-tree items) or multi (frequent pairs)")
	maxDist := fs.String("maxdist", "1.5", "maximum cousin distance (multiple of 0.5)")
	minOccur := fs.Int("minoccur", 1, "minimum within-tree occurrences")
	minSup := fs.Int("minsup", 2, "minimum cross-tree support (multi mode)")
	ignoreDist := fs.Bool("ignoredist", false, "count support ignoring cousin distance (multi mode)")
	fs.StringVar(&df.format, "format", "table", "output format: table or json")
	stream := fs.Bool("stream", false, "mine without materializing the forest (multi mode)")
	fs.IntVar(&df.shards, "shards", 0, "streaming worker count; 0 uses all CPUs")
	checkpoint := fs.String("checkpoint", "", "shard checkpoint file: written during -stream runs, resumed from when present")
	ckptEvery := fs.Int("checkpoint-every", 500, "trees mined between checkpoint writes")
	fs.StringVar(&df.compact, "compact", "", "also write the mined shard as a v4 zero-copy index to this file (requires -stream or -merge)")
	fs.StringVar(&df.plan, "plan", "", "write a distributed-mining partition manifest to this file (requires file inputs)")
	fs.IntVar(&df.parts, "parts", 2, "partition count for -plan")
	fs.IntVar(&df.worker, "worker", -1, "mine one partition (by index) of -manifest to its shard file")
	fs.StringVar(&df.manifest, "manifest", "", "partition manifest consumed by -worker and -merge")
	fs.BoolVar(&df.merge, "merge", false, "fold the worker shards named by -manifest into the master shard and print its frequent pairs")
	fs.IntVar(&df.distributed, "distributed", 0, "run plan -> N local worker processes -> merge end to end")
	fs.StringVar(&df.workdir, "workdir", "", "work directory for -distributed (default: a temp dir, removed on success)")
	fs.StringVar(&df.maxResident, "max-resident", "", "worker resident-memory budget (e.g. 64M); past it support counts spill to sorted disk segments")
	fs.IntVar(&df.distWorkers, "dist-workers", 0, "concurrent worker processes for -distributed; 0 uses all CPUs")
	fs.IntVar(&df.retries, "retries", 3, "per-partition retry budget for -distributed supervision")
	fs.DurationVar(&df.backoff, "backoff", 250*time.Millisecond, "initial retry backoff for -distributed; doubles per retry, with deterministic jitter")
	fs.DurationVar(&df.attemptTimeout, "attempt-timeout", 0, "per-attempt timeout for -distributed workers; 0 disables")
	fs.Float64Var(&df.stragglerFactor, "straggler-factor", 3, "speculatively re-execute a -distributed worker past this multiple of the median attempt duration; 0 disables")
	fs.BoolVar(&df.allowPartial, "allow-partial", false, "degrade instead of failing: merge the valid shards, report exact coverage and the re-mine command for each gap")
	if err := fs.Parse(args); err != nil {
		return err
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, name := range []string{"dist-workers", "retries", "backoff", "attempt-timeout", "straggler-factor"} {
		if set[name] && df.distributed == 0 {
			return fmt.Errorf("-%s supervises -distributed workers; use it with -distributed", name)
		}
	}
	if set["allow-partial"] && !df.merge && df.distributed == 0 {
		return fmt.Errorf("-allow-partial degrades a merge; use it with -merge or -distributed")
	}
	if df.format != "table" && df.format != "json" {
		return fmt.Errorf("unknown format %q (want table or json)", df.format)
	}

	d, err := treemine.ParseDist(*maxDist)
	if err != nil {
		return err
	}
	if d.IsWild() {
		return fmt.Errorf("-maxdist must be a concrete distance, not %q", *maxDist)
	}
	opts := treemine.Options{MaxDist: d, MinOccur: *minOccur}

	if df.active() && (*stream || *checkpoint != "") {
		return fmt.Errorf("the distributed modes manage their own streaming; drop -stream and -checkpoint")
	}
	if df.maxResident != "" && df.worker < 0 && df.distributed == 0 {
		return fmt.Errorf("-max-resident applies to workers; use it with -worker or -distributed")
	}
	fopts := treemine.ForestOptions{Options: opts, MinSup: *minSup, IgnoreDist: *ignoreDist}
	if df.active() {
		return runDist(ctx, df, fs.Args(), fopts, stdout)
	}

	if df.compact != "" && !*stream {
		return fmt.Errorf("-compact requires -stream (the shard to compact is the stream's result)")
	}

	if *stream {
		if *mode != "multi" {
			return fmt.Errorf("-stream requires -mode multi")
		}
		// The bounded-memory pipeline: with -checkpoint, an interrupted run
		// flushes the shard mined so far, and rerunning resumes from it.
		src := phyloio.OpenTrees(fs.Args(), stdin)
		defer src.Close()
		sh, rep, err := store.Mine(ctx, src, fopts, store.MineConfig{
			Workers: df.shards, Checkpoint: *checkpoint, CheckpointEvery: *ckptEvery, Compact: df.compact,
		})
		if errors.Is(err, context.Canceled) && *checkpoint != "" {
			fmt.Fprintf(os.Stderr, "cousinmine: interrupted after %d trees; checkpoint %s is resumable\n",
				rep.Trees, *checkpoint)
		}
		if err != nil {
			return err
		}
		if df.compact != "" {
			fmt.Fprintf(os.Stderr, "cousinmine: wrote v4 index %s (%d trees)\n", df.compact, sh.Trees())
		}
		if sh.Trees() == 0 {
			return fmt.Errorf("no input trees")
		}
		return emitMulti(stdout, df.format, sh.Finalize(fopts.MinSup), sh.Trees())
	}

	trees, err := phyloio.ReadTrees(fs.Args(), stdin)
	if err != nil {
		return err
	}
	if len(trees) == 0 {
		return fmt.Errorf("no input trees")
	}

	switch *mode {
	case "single":
		type treeItems struct {
			Tree  int             `json:"tree"`
			Nodes int             `json:"nodes"`
			Items []treemine.Item `json:"items"`
		}
		var all []treeItems
		for i, t := range trees {
			items := treemine.Mine(t, opts)
			if df.format == "json" {
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
		if df.format == "json" {
			return writeJSON(stdout, all)
		}
	case "multi":
		fp := treemine.MineForest(trees, fopts)
		return emitMulti(stdout, df.format, fp, len(trees))
	default:
		return fmt.Errorf("unknown mode %q (want single or multi)", *mode)
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
