package serve

import (
	"treemine/internal/core"
	"treemine/internal/oracle"
	"treemine/internal/tree"
)

// The differential suites hold the server to internal/oracle: every
// expected answer comes from the oracle's brute-force model of the
// source trees, never from the library that built the served file.

// expected holds the oracle's answers for one served source.
type expected struct {
	// support answers a support probe; ok false means the file cannot
	// answer that distance form (501).
	support func(l1, l2 string, d core.Dist) (n int, ok bool)
	// frequent is the full listing at minsup, in the shared order.
	frequent func(minSup int) []core.FrequentPair
	// tdist answers a tree-distance query with its status: 200, 404 for
	// an unknown tree, 501 without per-tree item sets.
	tdist func(t1, t2 string, v core.Variant) (td, sim float64, status int)
	stats Stats // cache counters are added at request time
}

// naiveAnswers is what a server must answer over trees mined under opts
// and served from a shard when names is nil — aggregate counts in one
// distance form, no tdist — or from an index naming the trees, which
// keeps every tree's item set. A packed shard's label table holds every
// label its trees carry; any other file's only the labels of its pairs.
func naiveAnswers(trees []*tree.Tree, names []string, opts core.ForestOptions) expected {
	sets := oracle.MineTrees(trees, int(opts.MaxDist), opts.MinOccur)
	records := oracle.Records(sets, opts.IgnoreDist)
	labels := map[string]bool{}
	support := map[oracle.Key]int{}
	for _, p := range records {
		labels[p.Key.A], labels[p.Key.B], support[p.Key] = true, true, p.Support
	}
	if names == nil && opts.MaxDist <= core.MaxPackedDist {
		for _, tr := range trees {
			for _, n := range tr.LabeledNodes() {
				labels[tr.MustLabel(n)] = true
			}
		}
	}
	e := expected{
		frequent: func(minSup int) []core.FrequentPair {
			var out []core.FrequentPair
			for _, p := range oracle.Forest(sets, minSup, opts.IgnoreDist) {
				out = append(out, core.FrequentPair{Key: core.Key{A: p.Key.A, B: p.Key.B, D: core.Dist(p.Key.D)}, Support: p.Support})
			}
			return out
		},
		stats: Stats{
			Trees: len(trees), Labels: len(labels), Pairs: len(records),
			MaxDist: opts.MaxDist, MinOccur: opts.MinOccur, IgnoreDist: opts.IgnoreDist,
		},
	}
	if names == nil {
		e.support = func(l1, l2 string, d core.Dist) (int, bool) {
			return support[oracle.NewKey(l1, l2, int(d))], d.IsWild() == opts.IgnoreDist
		}
		e.tdist = func(string, string, core.Variant) (float64, float64, int) { return 0, 0, 501 }
		e.stats.SupportsConcreteDist, e.stats.SupportsWildcard = !opts.IgnoreDist, opts.IgnoreDist
	} else {
		byName := map[string]int{}
		for i := len(names) - 1; i >= 0; i-- {
			byName[names[i]] = i // the first tree of a name wins
			e.stats.Items += len(sets[i])
		}
		e.support = func(l1, l2 string, d core.Dist) (int, bool) {
			return oracle.Support(sets, l1, l2, int(d)), true
		}
		e.tdist = func(t1, t2 string, v core.Variant) (float64, float64, int) {
			i, ok1 := byName[t1]
			j, ok2 := byName[t2]
			if !ok1 || !ok2 {
				return 0, 0, 404
			}
			return oracle.TDist(sets[i], sets[j], oracle.View(v)), oracle.Sim(sets[i], sets[j]), 200
		}
		e.stats.SupportsTDist, e.stats.SupportsConcreteDist, e.stats.SupportsWildcard = true, true, true
	}
	return e
}
