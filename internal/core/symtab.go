package core

import (
	"fmt"
	"strings"

	"treemine/internal/tree"
)

// Symbols interns labels to dense uint32 IDs so the mining hot paths can
// compare and hash labels as integers instead of strings. A Symbols is
// append-only: once a label has an ID, that ID never changes.
//
// Concurrency: Intern and InternTree mutate the table and must not run
// concurrently with anything else. Lookup, Label, and Len only read and
// are safe from any number of goroutines once interning is done — this is
// what lets a multi-worker mining round intern its trees' labels first
// and then share the table lock-free across workers.
type Symbols struct {
	ids    map[string]uint32
	labels []string
}

// NewSymbols returns an empty symbol table.
func NewSymbols() *Symbols {
	return &Symbols{ids: make(map[string]uint32)}
}

// Intern returns the ID for label, assigning the next dense ID on first
// sight. The table stores its own copy of a new label: a label is often
// a substring of a whole parsed Newick chunk, which it would otherwise
// keep alive for the life of the table.
func (s *Symbols) Intern(label string) uint32 {
	if id, ok := s.ids[label]; ok {
		return id
	}
	label = strings.Clone(label)
	id := uint32(len(s.labels))
	s.ids[label] = id
	s.labels = append(s.labels, label)
	return id
}

// InternTree interns the label of every labeled node of t.
func (s *Symbols) InternTree(t *tree.Tree) {
	for n, size := tree.NodeID(0), tree.NodeID(t.Size()); n < size; n++ {
		if t.Labeled(n) {
			s.Intern(t.MustLabel(n))
		}
	}
}

// Lookup returns the ID of label and whether it has been interned.
func (s *Symbols) Lookup(label string) (uint32, bool) {
	id, ok := s.ids[label]
	return id, ok
}

// Label returns the label for id; it panics on an ID the table never
// issued.
func (s *Symbols) Label(id uint32) string { return s.labels[id] }

// Len returns the number of interned labels.
func (s *Symbols) Len() int { return len(s.labels) }

// reset empties the table for reuse, keeping its allocations.
func (s *Symbols) reset() {
	clear(s.ids)
	s.labels = s.labels[:0]
}

// truncate forgets every label interned after the first n, restoring
// the table to an earlier Len: a failed mining round withdraws the
// labels it interned this way, so none of them outlives the round.
func (s *Symbols) truncate(n int) {
	for _, l := range s.labels[n:] {
		delete(s.ids, l)
	}
	clear(s.labels[n:])
	s.labels = s.labels[:n]
}

// IKey is a cousin pair item key packed into one machine word:
//
//	bits 34..63  symbol ID of the smaller label (30 bits)
//	bits  4..33  symbol ID of the larger label (30 bits)
//	bits  0..3   cousin distance + 1 (0 encodes the wildcard)
//
// Hashing and comparing an IKey is a single integer operation, which is
// what makes the interned mining paths allocation-free; keys convert back
// to the public string Key only at API boundaries. The packing follows
// symA<<34 | symB<<4 | dist-view.
type IKey uint64

const (
	ikeySymBits  = 30
	ikeyDistBits = 4
	ikeyDistMask = 1<<ikeyDistBits - 1

	// MaxSymbols is the largest number of distinct labels an IKey can
	// address.
	MaxSymbols = 1 << ikeySymBits
	// MaxPackedDist is the largest cousin distance an IKey can carry
	// (14 halves = distance 7). Options beyond it fall back to the
	// string-keyed paths.
	MaxPackedDist = Dist(1<<ikeyDistBits - 2)
)

// NewIKey packs two symbol IDs and a distance, canonicalizing so the
// smaller ID comes first. Both IDs must be below MaxSymbols and d must be
// DistWild or at most MaxPackedDist.
func NewIKey(a, b uint32, d Dist) IKey {
	if b < a {
		a, b = b, a
	}
	return IKey(uint64(a)<<(ikeySymBits+ikeyDistBits) | uint64(b)<<ikeyDistBits | uint64(d+1))
}

// Syms returns the two symbol IDs, smaller first.
func (k IKey) Syms() (a, b uint32) {
	return uint32(k >> (ikeySymBits + ikeyDistBits)), uint32(k>>ikeyDistBits) & (MaxSymbols - 1)
}

// Dist returns the cousin distance (DistWild when the key is a wildcard
// aggregate).
func (k IKey) Dist() Dist { return Dist(k&ikeyDistMask) - 1 }

// Key converts back to the public string-keyed form, re-canonicalizing by
// label order.
func (k IKey) Key(syms *Symbols) Key {
	a, b := k.Syms()
	return NewKey(syms.Label(a), syms.Label(b), k.Dist())
}

// String formats the key for debugging; it cannot print labels without a
// table, so it prints raw symbol IDs.
func (k IKey) String() string {
	a, b := k.Syms()
	return fmt.Sprintf("(#%d, #%d, %s)", a, b, k.Dist())
}

// packable reports whether mining at maxDist can use packed integer keys.
func packable(maxDist Dist) bool { return maxDist <= MaxPackedDist }

// ISet is the interned counterpart of ItemSet: a cousin pair item
// multiset keyed by packed IKey. It is the working representation inside
// the mining and distance hot paths; convert with ToItemSet at the
// boundary.
type ISet map[IKey]int32

// ToItemSet converts to the public string-keyed form, dropping items
// below minOccur.
func (s ISet) ToItemSet(syms *Symbols, minOccur int) ItemSet {
	out := make(ItemSet, len(s))
	for k, n := range s {
		if int(n) >= minOccur {
			out[k.Key(syms)] = int(n)
		}
	}
	return out
}
