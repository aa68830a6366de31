package core

import "treemine/internal/tree"

// Sim is the paper's similarity score σ(C, T) between a consensus tree C
// and a source tree T (Eq. 4): over all cousin pairs cp whose label pair
// occurs in both trees,
//
//	σ(C, T) = Σ 1 / (1 + |cdist_C(cp) − cdist_T(cp)|)
//
// A shared pair at identical distances contributes 1; pairs at diverging
// distances contribute less. When a label pair occurs at several
// distances within one tree, the smallest distance represents it (the
// paper's worked example uses each pair once; the minimum is the closest
// kinship the tree asserts for the pair).
func Sim(c, t *tree.Tree, opts Options) float64 {
	profile := profiler([]*tree.Tree{c, t}, VariantDistOccur, opts)
	return SimProfiles(profile(c), profile(t))
}

// SimItems computes σ from two pre-mined item sets; use it when scoring
// one consensus tree against many source trees to avoid re-mining the
// consensus tree each time. It is the item-set form of SimProfiles.
func SimItems(ci, ti ItemSet) float64 {
	return SimProfiles(NewProfileItems(ci, VariantDistOccur), NewProfileItems(ti, VariantDistOccur))
}

// AvgSim is the paper's average similarity score σ̄(C, S) of a consensus
// tree C with respect to the set S of source trees it was derived from
// (Eq. 5): the mean of σ(C, T) over T ∈ S. Higher is better; the paper
// uses this to rank the five classical consensus methods. AvgSim returns
// 0 for an empty set.
func AvgSim(c *tree.Tree, set []*tree.Tree, opts Options) float64 {
	if len(set) == 0 {
		return 0
	}
	profile := profiler(append([]*tree.Tree{c}, set...), VariantDistOccur, opts)
	cp := profile(c)
	sum := 0.0
	for _, t := range set {
		sum += SimProfiles(cp, profile(t))
	}
	return sum / float64(len(set))
}
