package core

import (
	"fmt"
	"sort"
)

// Key identifies a cousin pair item within one tree: an unordered label
// pair plus a cousin distance. Labels are stored canonically with
// A ≤ B; construct keys with NewKey to maintain the invariant. D may be
// DistWild in aggregated views.
type Key struct {
	A, B string
	D    Dist
}

// NewKey returns the canonical Key for the (possibly unordered) label
// pair and distance.
func NewKey(l1, l2 string, d Dist) Key {
	if l2 < l1 {
		l1, l2 = l2, l1
	}
	return Key{A: l1, B: l2, D: d}
}

// String formats the key like the paper's quadruples, e.g. "(a, c, 0.5)".
func (k Key) String() string { return fmt.Sprintf("(%s, %s, %s)", k.A, k.B, k.D) }

// CompareKeys orders keys lexicographically by (A, B, D) — the one key
// ordering every sorted output in this package and its callers shares. It
// returns -1, 0, or +1 in the manner of strings.Compare.
func CompareKeys(a, b Key) int {
	if a.A != b.A {
		if a.A < b.A {
			return -1
		}
		return 1
	}
	if a.B != b.B {
		if a.B < b.B {
			return -1
		}
		return 1
	}
	switch {
	case a.D < b.D:
		return -1
	case a.D > b.D:
		return 1
	}
	return 0
}

// ItemSet is the multiset of cousin pair items of one tree: each key maps
// to its number of occurrences (distinct node pairs realizing it). An
// ItemSet corresponds to the paper's cpi(T).
type ItemSet map[Key]int

// Items returns the item set as a sorted slice of Item values, ordered by
// (A, B, D) for stable output.
func (s ItemSet) Items() []Item {
	out := make([]Item, 0, len(s))
	for k, n := range s {
		out = append(out, Item{Key: k, Occur: n})
	}
	sort.Slice(out, func(i, j int) bool {
		return CompareKeys(out[i].Key, out[j].Key) < 0
	})
	return out
}

// Item is one cousin pair item: the paper's quadruple
// (label(u), label(v), dist, occur).
type Item struct {
	Key   Key
	Occur int
}

// String formats the item like the paper, e.g. "(a, c, 0.5, 2)".
func (it Item) String() string {
	return fmt.Sprintf("(%s, %s, %s, %d)", it.Key.A, it.Key.B, it.Key.D, it.Occur)
}

// IgnoreDist aggregates the item set across distances, the paper's
// (l1, l2, *, occur) view: occurrences of the same label pair at
// different distances are summed under DistWild.
func (s ItemSet) IgnoreDist() ItemSet {
	out := make(ItemSet, len(s))
	for k, n := range s {
		out[Key{A: k.A, B: k.B, D: DistWild}] += n
	}
	return out
}

// IgnoreOccur flattens the multiset into a set, the paper's
// (l1, l2, dist, *) view: every present key keeps occurrence 1.
func (s ItemSet) IgnoreOccur() ItemSet {
	out := make(ItemSet, len(s))
	for k := range s {
		out[k] = 1
	}
	return out
}

// LabelPairs returns the paper's (l1, l2, *, *) view: the set of label
// pairs that are cousins at any distance.
func (s ItemSet) LabelPairs() ItemSet { return s.IgnoreDist().IgnoreOccur() }

// FilterMinOccur returns the items with occurrence ≥ minOccur.
func (s ItemSet) FilterMinOccur(minOccur int) ItemSet {
	out := make(ItemSet, len(s))
	for k, n := range s {
		if n >= minOccur {
			out[k] = n
		}
	}
	return out
}

// Total returns the multiset cardinality: the sum of all occurrence
// counts.
func (s ItemSet) Total() int {
	n := 0
	for _, c := range s {
		n += c
	}
	return n
}

// Intersect returns the multiset intersection of s and t, keeping each
// shared key with the minimum of the two occurrence counts (footnote 2 of
// the paper).
func (s ItemSet) Intersect(t ItemSet) ItemSet {
	out := make(ItemSet)
	for k, n := range s {
		if m, ok := t[k]; ok {
			if m < n {
				n = m
			}
			out[k] = n
		}
	}
	return out
}

// Union returns the multiset union of s and t, keeping each key with the
// maximum of the two occurrence counts (footnote 2 of the paper).
func (s ItemSet) Union(t ItemSet) ItemSet {
	out := make(ItemSet, len(s)+len(t))
	for k, n := range s {
		out[k] = n
	}
	for k, m := range t {
		if m > out[k] {
			out[k] = m
		}
	}
	return out
}

// MinDistOf returns the smallest cousin distance at which the label pair
// (l1,l2) occurs in s, and whether it occurs at all. Items under the
// wildcard distance are ignored.
func (s ItemSet) MinDistOf(l1, l2 string) (Dist, bool) {
	probe := NewKey(l1, l2, 0)
	best, found := Dist(0), false
	for k := range s {
		if k.A == probe.A && k.B == probe.B && !k.D.IsWild() {
			if !found || k.D < best {
				best, found = k.D, true
			}
		}
	}
	return best, found
}
