// Command cousindex maintains a persistent cousin-pair index over a
// phylogeny database: mine once with `build`, then answer support and
// frequent-pattern queries from the index file without re-mining.
//
// Usage:
//
//	cousindex build -o db.idx [-compact db.v4] [flags] trees.nwk ...
//	cousindex compact -i db.idx -o db.v4
//	cousindex frequent -i db.idx [-minsup 2]
//	cousindex query -i db.idx -pair "Gnetum,Welwitschia" [-pair ...] [-dist 0|0.5|*]
//	cousindex info -i db.idx
//
// compact streams any index, shard checkpoint, or v4 file into the v4
// zero-copy layout cousinserve memory-maps for O(1) startup; build
// -compact writes one alongside the index in the same run.
//
// frequent, query and info answer from that layout too: a v4 file is
// memory-mapped, any other store file is compacted in memory first.
// -pair may repeat; every probe reads the per-tree item sets mined once
// at build time, which a file compacted from an index keeps and one
// compacted from a shard does not — query needs an index or its v4.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"treemine"
	"treemine/internal/benchutil"
	"treemine/internal/core"
	"treemine/internal/phyloio"
	"treemine/internal/store"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cousindex:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: cousindex build|frequent|query|info [flags]")
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "build":
		return runBuild(rest, stdin, stdout)
	case "compact":
		return runCompact(rest, stdout)
	case "frequent":
		return runFrequent(rest, stdout)
	case "query":
		return runQuery(rest, stdout)
	case "info":
		return runInfo(rest, stdout)
	default:
		return fmt.Errorf("unknown subcommand %q (want build, compact, frequent, query, or info)", cmd)
	}
}

func runBuild(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("cousindex build", flag.ContinueOnError)
	fs.SetOutput(stdout)
	out := fs.String("o", "", "output index file (required)")
	compact := fs.String("compact", "", "also write a v4 zero-copy index to this file")
	maxDist := fs.String("maxdist", "1.5", "maximum cousin distance to index")
	minOccur := fs.Int("minoccur", 1, "minimum within-tree occurrences to index")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("build: -o is required")
	}
	d, err := treemine.ParseDist(*maxDist)
	if err != nil {
		return err
	}
	if d.IsWild() {
		return fmt.Errorf("build: -maxdist must be concrete")
	}
	trees, err := phyloio.ReadTrees(fs.Args(), stdin)
	if err != nil {
		return err
	}
	if len(trees) == 0 {
		return fmt.Errorf("build: no input trees")
	}
	ix, err := store.Build(trees, nil, core.Options{MaxDist: d, MinOccur: *minOccur})
	if err != nil {
		return err
	}
	if err := store.AtomicWrite(*out, ix.Save); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "indexed %d trees into %s\n", ix.NumTrees(), *out)
	if *compact != "" {
		if err := store.CompactIndexV4(*compact, ix); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "compacted v4 index into %s\n", *compact)
	}
	return nil
}

// runCompact streams an existing store file — v1/v2 index, v3 shard
// checkpoint, or v4 (validated verbatim copy) — into the v4 layout.
func runCompact(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("cousindex compact", flag.ContinueOnError)
	fs.SetOutput(stdout)
	in := fs.String("i", "", "source index, shard, or v4 file (required)")
	out := fs.String("o", "", "output v4 file (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return fmt.Errorf("compact: -i and -o are required")
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := store.CompactV4(*out, f); err != nil {
		return err
	}
	m, err := store.OpenMapped(*out)
	if err != nil {
		return fmt.Errorf("verify %s: %w", *out, err)
	}
	defer m.Close()
	fmt.Fprintf(stdout, "compacted %s into %s (%d trees, %d pairs, %d bytes)\n",
		*in, *out, m.Trees(), m.Len(), m.Size())
	return nil
}

// openIndex opens any store file for querying: a v4 file is
// memory-mapped, any other format is compacted to v4 in memory.
func openIndex(path string) (*store.Mapped, error) {
	if path == "" {
		return nil, fmt.Errorf("-i index file is required")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var head [12]byte
	if _, err := io.ReadFull(f, head[:]); err == nil && string(head[:]) == "TREEMINEIDX4" {
		return store.OpenMapped(path)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	return store.OpenMappedReader(f)
}

func runFrequent(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("cousindex frequent", flag.ContinueOnError)
	fs.SetOutput(stdout)
	in := fs.String("i", "", "index file")
	minSup := fs.Int("minsup", 2, "minimum support")
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, err := openIndex(*in)
	if err != nil {
		return err
	}
	defer m.Close()
	tb := benchutil.NewTable("label1", "label2", "dist", "support")
	for _, p := range m.Frequent(*minSup) {
		tb.AddRow(p.Key.A, p.Key.B, p.Key.D.String(), p.Support)
	}
	tb.Fprint(stdout)
	return nil
}

// pairList collects repeated -pair flags.
type pairList []string

func (p *pairList) String() string { return strings.Join(*p, " ") }

func (p *pairList) Set(v string) error {
	*p = append(*p, v)
	return nil
}

func runQuery(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("cousindex query", flag.ContinueOnError)
	fs.SetOutput(stdout)
	in := fs.String("i", "", "index file")
	var pairs pairList
	fs.Var(&pairs, "pair", `label pair, comma separated: "a,b" (repeatable)`)
	distStr := fs.String("dist", "*", "cousin distance or * for any")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(pairs) == 0 {
		return fmt.Errorf(`query: at least one -pair "labelA,labelB" is required`)
	}
	d, err := treemine.ParseDist(*distStr)
	if err != nil {
		return err
	}
	m, err := openIndex(*in)
	if err != nil {
		return err
	}
	defer m.Close()
	if !m.HasTrees() {
		return fmt.Errorf("query: %s holds aggregate counts without per-tree item sets (it comes from a shard); serve it with cousinserve and use /v1/support", *in)
	}
	for _, pair := range pairs {
		parts := strings.SplitN(pair, ",", 2)
		if len(parts) != 2 || parts[0] == "" || parts[1] == "" {
			return fmt.Errorf(`query: -pair must look like "labelA,labelB"`)
		}
		l1, l2 := strings.TrimSpace(parts[0]), strings.TrimSpace(parts[1])
		lo, hi := m.Records(l1, l2, d)
		var hits []int
		for t := 0; t < m.Trees(); t++ {
			if m.TreeOccur(t, lo, hi) > 0 {
				hits = append(hits, t)
			}
		}
		fmt.Fprintf(stdout, "support of (%s, %s) at distance %s: %d of %d trees\n",
			l1, l2, d, len(hits), m.Trees())
		if !d.IsWild() {
			for _, t := range hits {
				fmt.Fprintf(stdout, "  %s (%d nodes, %d occurrences)\n",
					m.TreeName(t), m.TreeNodes(t), m.TreeOccur(t, lo, hi))
			}
		}
	}
	return nil
}

func runInfo(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("cousindex info", flag.ContinueOnError)
	fs.SetOutput(stdout)
	in := fs.String("i", "", "index file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, err := openIndex(*in)
	if err != nil {
		return err
	}
	defer m.Close()
	opts := m.Options()
	keying := "packed"
	if m.Generic() {
		keying = "generic"
	}
	fmt.Fprintf(stdout, "format: v4 (zero-copy, %s keys, per-tree item sets: %v)\ntrees: %d\nitems: %d\npairs: %d\nlabels: %d\nmaxdist: %s\nminoccur: %d\nignoredist: %v\nbytes: %d\n",
		keying, m.HasTrees(), m.Trees(), m.Items(), m.Len(), m.NumSymbols(), opts.MaxDist, opts.MinOccur, opts.IgnoreDist, m.Size())
	return nil
}
