package core

import (
	"math/bits"
	"slices"
	"strings"
)

// packedRun holds a run-backed shard's entries (DESIGN.md §56): a
// strictly ascending (A, B, D) run with A ≤ B, coded against a strictly
// sorted label table, so symbol IDs are label ranks and the run is
// already in canonical Snapshot order. Each record is packed into one
// word, most significant field first:
//
//	A      symBits bits
//	B      symBits bits
//	D + 1  4 bits (0 is DistWild)
//	N      the remaining nBits bits
//
// so comparing two words' keys is comparing w >> nBits. symBits is the
// width the label table needs — 15 bits for 18,870 labels, which leaves
// 30 bits of count. A word costs 8 bytes per entry; a map[IKey]int64
// entry costs 19 to 39 on the runtime's swiss tables, and a ShardItem 24.
// A record that does not fit (a count past 2^nBits, a distance outside
// the packed range) is simply not adoptable: the shard keeps its map.
type packedRun struct {
	words   []uint64
	labels  int // size of the label table the run is coded against
	symBits uint
	nBits   uint
}

func newPackedRun(labels int) *packedRun {
	sb := uint(bits.Len(uint(max(labels, 1) - 1)))
	return &packedRun{labels: labels, symBits: sb, nBits: 64 - 4 - 2*sb}
}

func (r *packedRun) len() int { return len(r.words) }

// push appends it if it packs and continues the run in strictly
// ascending order, and reports whether it did.
func (r *packedRun) push(it ShardItem) bool {
	if it.A > it.B || int(it.B) >= r.labels ||
		it.D < DistWild || it.D > MaxPackedDist ||
		it.N < 0 || uint64(it.N)>>r.nBits != 0 {
		return false
	}
	key := uint64(it.A)<<(r.symBits+4) | uint64(it.B)<<4 | uint64(it.D+1)
	if n := len(r.words); n > 0 && r.words[n-1]>>r.nBits >= key {
		return false
	}
	r.words = append(r.words, key<<r.nBits|uint64(it.N))
	return true
}

// extend pushes every item of a batch, or — when one of them does not
// continue the run — none of them, and reports which.
func (r *packedRun) extend(items []ShardItem) bool {
	n := len(r.words)
	for _, it := range items {
		if !r.push(it) {
			r.words = r.words[:n]
			return false
		}
	}
	return true
}

// item unpacks one word.
func (r *packedRun) item(w uint64) ShardItem {
	key := w >> r.nBits
	symMask := uint64(1)<<r.symBits - 1
	return ShardItem{
		A: uint32(key >> (r.symBits + 4)),
		B: uint32(key >> 4 & symMask),
		D: Dist(key&15) - 1,
		N: int64(w & (1<<r.nBits - 1)),
	}
}

// items unpacks the whole run into a fresh slice.
func (r *packedRun) items() []ShardItem {
	out := make([]ShardItem, len(r.words))
	for i, w := range r.words {
		out[i] = r.item(w)
	}
	return out
}

// strictlySorted reports whether labels ascend with no duplicates —
// the one table whose intern IDs are its label ranks.
func strictlySorted(labels []string) bool {
	for i := 1; i < len(labels); i++ {
		if labels[i-1] >= labels[i] {
			return false
		}
	}
	return true
}

// labelRanks brings DrainSorted's label order up to date and returns
// the rank vector: local ID → position of its label among every label
// interned so far. byLabel keeps the local IDs already ordered; only the
// labels interned since the previous drain are sorted, then merged in,
// so a run of hundreds of drains never re-sorts the whole table. Drains
// run between mining rounds, so no ID in byLabel can have been withdrawn
// by a failed round's truncate.
func (sh *SupportShard) labelRanks() []uint32 {
	l := sh.syms.Len()
	old := len(sh.byLabel)
	if old == l {
		return sh.rank
	}
	label := func(id uint32) string { return sh.syms.Label(id) }
	fresh := make([]uint32, 0, l-old)
	for id := old; id < l; id++ {
		fresh = append(fresh, uint32(id))
	}
	slices.SortFunc(fresh, func(x, y uint32) int { return strings.Compare(label(x), label(y)) })
	merged := make([]uint32, 0, l)
	i, j := 0, 0
	for i < old && j < len(fresh) {
		if label(sh.byLabel[i]) < label(fresh[j]) {
			merged = append(merged, sh.byLabel[i])
			i++
		} else {
			merged = append(merged, fresh[j])
			j++
		}
	}
	merged = append(append(merged, sh.byLabel[i:]...), fresh[j:]...)
	sh.byLabel = merged
	sh.rank = slices.Grow(sh.rank[:0], l)[:l]
	for r, id := range merged {
		sh.rank[id] = uint32(r)
	}
	return sh.rank
}
