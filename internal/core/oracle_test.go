package core

import (
	"fmt"
	"sort"
)

// The map-based tree comparisons the profile kernels replaced, kept
// verbatim as the differential reference: tdistItemsOracle rebuilds each
// variant's view as a map and probes one against the other, and
// simItemsOracle indexes each label pair's smallest distance in a map
// and sums the sorted terms. TDistProfiles and SimProfiles (and every
// entry point built on them) must equal these bit for bit.

// view projects an item set to the variant's components.
func (v Variant) view(s ItemSet) ItemSet {
	switch v {
	case VariantLabel:
		return s.LabelPairs()
	case VariantDist:
		return s.IgnoreOccur()
	case VariantOccur:
		return s.IgnoreDist()
	case VariantDistOccur:
		return s
	default:
		panic(fmt.Sprintf("core: unknown variant %d", int(v)))
	}
}

// tdistItemsOracle is the map-based TDistItems.
func tdistItemsOracle(s1, s2 ItemSet, v Variant) float64 {
	a, b := v.view(s1), v.view(s2)
	// Σ min over shared keys gives |∩|; |∪| follows from
	// min(x,y) + max(x,y) = x + y without materializing either multiset.
	inter := 0
	for k, n := range a {
		if m, ok := b[k]; ok {
			if m < n {
				n = m
			}
			inter += n
		}
	}
	union := a.Total() + b.Total() - inter
	if union == 0 {
		return 0
	}
	return 1 - float64(inter)/float64(union)
}

// simItemsOracle is the map-based SimItems.
func simItemsOracle(ci, ti ItemSet) float64 {
	cMin := minDistIndex(ci)
	tMin := minDistIndex(ti)
	// Collect the per-pair contributions and sum them in sorted order so
	// the result is independent of map iteration order (float addition is
	// not associative) and σ(C,T) == σ(T,C) exactly.
	var terms []float64
	for pair, dc := range cMin {
		dt, ok := tMin[pair]
		if !ok {
			continue
		}
		diff := (dc - dt).Float()
		if diff < 0 {
			diff = -diff
		}
		terms = append(terms, 1/(1+diff))
	}
	sort.Float64s(terms)
	sum := 0.0
	for _, v := range terms {
		sum += v
	}
	return sum
}

// minDistIndex maps each label pair of s to its smallest cousin distance.
func minDistIndex(s ItemSet) map[[2]string]Dist {
	out := make(map[[2]string]Dist, len(s))
	for k := range s {
		if k.D.IsWild() {
			continue
		}
		p := [2]string{k.A, k.B}
		if d, ok := out[p]; !ok || k.D < d {
			out[p] = k.D
		}
	}
	return out
}
