// Command benchpaper regenerates every table and figure of the paper's
// evaluation (§4–5) on this reproduction's substrates. Each experiment
// prints the same axes the paper plots; absolute times differ (the paper
// ran K code on a SUN Ultra 60), but the shapes — linear scaling,
// monotone growth, method rankings — are the reproduction targets
// recorded in EXPERIMENTS.md.
//
// Usage:
//
//	benchpaper -exp table1|fig4|fig5|fig6|fig6stream|fig6xl|fig7|fig8|fig9|fig10|all [flags]
//
// The -full flag runs the experiments at the paper's published scale
// (e.g. one million trees for Figure 6); the default scale finishes in
// seconds. The -maxtrees flag (alias -trees) overrides the tree-count
// ceiling of the Figure 6 family (fig6, fig6stream, fig6xl) directly,
// which is how the smoke tests and the BENCH recordings pick their
// scale.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"treemine/internal/benchutil"
)

// config carries the experiment-wide knobs.
type config struct {
	seed     int64
	full     bool
	csv      bool
	maxTrees int // Figure 6 family tree-count ceiling; 0 = experiment default
	out      io.Writer
}

// sweepMax resolves a Figure 6-family tree-count ceiling: an explicit
// -maxtrees wins, then -full's published scale, then the experiment
// default.
func (c config) sweepMax(def, full int) int {
	if c.maxTrees > 0 {
		return c.maxTrees
	}
	if c.full {
		return full
	}
	return def
}

// emit prints an experiment's result table in the selected format.
func (c config) emit(tb *benchutil.Table) error {
	if c.csv {
		return tb.FprintCSV(c.out)
	}
	tb.Fprint(c.out)
	return nil
}

// experiment couples a name with its runner.
type experiment struct {
	name string
	desc string
	run  func(cfg config) error
}

func experiments() []experiment {
	return []experiment{
		{"table1", "cousin pair items of the reconstructed example tree T2", runTable1},
		{"fig4", "Single_Tree_Mining time vs fanout", runFig4},
		{"fig5", "Single_Tree_Mining time vs tree size for several maxdist", runFig5},
		{"fig6", "Multiple_Tree_Mining time vs number of synthetic trees", runFig6},
		{"fig6stream", "streamed Multiple_Tree_Mining at 10× the Figure 6 scale", runFig6Stream},
		{"fig6xl", "sharded streaming mining of a 100k-tree corpus with worker scaling and peak heap", runFig6XL},
		{"fig7", "Multiple_Tree_Mining time vs number of phylogenies", runFig7},
		{"fig8", "co-occurring patterns in the seed-plant phylogenies", runFig8},
		{"fig9", "consensus-method quality by average similarity score", runFig9},
		{"fig10", "kernel-tree search time vs number of groups", runFig10},
		{"studies", "per-study co-occurring patterns across the simulated corpus (§5.1)", runStudies},
		{"measures", "cousin-based distances vs classical baselines under NNI perturbation (§7)", runMeasures},
		{"ablation", "single-tree miner strategies compared (beyond the paper)", runAblation},
		{"distmine", "coordinator/worker mining: plan, N worker processes, merge vs single-process", runDistMine},
	}
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchpaper:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchpaper", flag.ContinueOnError)
	fs.SetOutput(stdout)
	exp := fs.String("exp", "all", "experiment to run (table1, fig4..fig10, studies, ablation, or all)")
	seed := fs.Int64("seed", 1, "random seed")
	full := fs.Bool("full", false, "run at the paper's published scale (slow)")
	csvOut := fs.Bool("csv", false, "emit result tables as CSV for plotting")
	var maxTrees int
	fs.IntVar(&maxTrees, "maxtrees", 0, "tree-count ceiling for the Figure 6 family (0 = experiment default)")
	fs.IntVar(&maxTrees, "trees", 0, "alias for -maxtrees")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := config{seed: *seed, full: *full, csv: *csvOut, maxTrees: maxTrees, out: stdout}

	if *exp == "all" {
		for _, e := range experiments() {
			fmt.Fprintf(stdout, "== %s: %s ==\n", e.name, e.desc)
			if err := e.run(cfg); err != nil {
				return fmt.Errorf("%s: %w", e.name, err)
			}
			fmt.Fprintln(stdout)
		}
		return nil
	}
	for _, e := range experiments() {
		if e.name == *exp {
			fmt.Fprintf(stdout, "== %s: %s ==\n", e.name, e.desc)
			return e.run(cfg)
		}
	}
	return fmt.Errorf("unknown experiment %q", *exp)
}
