package core

import (
	"fmt"

	"treemine/internal/tree"
)

// Variant selects which components of a cousin pair item participate in
// the cousin-based tree distance (§5.3 of the paper): the cousin distance
// and/or the occurrence count may each be wildcarded, giving four
// measures.
type Variant int

const (
	// VariantLabel considers neither cousin distance nor occurrence:
	// items are bare label pairs (the paper's tdist_label).
	VariantLabel Variant = iota
	// VariantDist considers the cousin distance only (tdist_dist).
	VariantDist
	// VariantOccur considers the occurrence count only (tdist_occ).
	VariantOccur
	// VariantDistOccur considers both (tdist_{occ,dist}); this is the
	// variant the paper's kernel-tree experiment uses.
	VariantDistOccur
)

// String returns the paper's name for the variant.
func (v Variant) String() string {
	switch v {
	case VariantLabel:
		return "tdist_label"
	case VariantDist:
		return "tdist_dist"
	case VariantOccur:
		return "tdist_occ"
	case VariantDistOccur:
		return "tdist_{occ,dist}"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// TDist is the cousin-based tree distance of Eq. 6:
//
//	tdist(T1, T2) = 1 − |cpi(T1) ∩ cpi(T2)| / |cpi(T1) ∪ cpi(T2)|
//
// where cpi is the cousin pair item multiset projected per the variant,
// ∩/∪ follow the paper's footnote 2 (min/max of occurrence counts), and
// |·| is the multiset cardinality (sum of counts). The result is in
// [0, 1]: 0 for trees with identical item sets, 1 for trees sharing no
// items. Unlike Robinson–Foulds it is defined for trees over different
// taxa sets, which is what makes it usable for kernel-tree and supertree
// work. Two trees with empty item sets (e.g. single nodes) are at
// distance 0.
func TDist(t1, t2 *tree.Tree, v Variant, opts Options) float64 {
	profile := profiler([]*tree.Tree{t1, t2}, v, opts)
	return TDistProfiles(profile(t1), profile(t2))
}

// TDistItems computes the tree distance from pre-mined item sets; use it
// when computing many pairwise distances over the same trees. It is the
// item-set form of TDistProfiles: both sets are frozen into profiles
// under the variant first.
func TDistItems(s1, s2 ItemSet, v Variant) float64 {
	return TDistProfiles(NewProfileItems(s1, v), NewProfileItems(s2, v))
}
