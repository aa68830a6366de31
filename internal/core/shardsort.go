package core

import (
	"cmp"
	"math"
	"math/bits"
)

// radixCutoff is the bucket size below which SortShardItems finishes a
// bucket with insertion sort instead of another radix pass.
const radixCutoff = 32

// radixDigit names one 8-bit digit of the (A, B, D) sort key: which
// field it comes from and how far that field is shifted.
type radixDigit struct {
	field uint8 // 0 = A, 1 = B, 2 = D − min D
	shift uint8
}

// radixPlan is the digit sequence of one sort, most significant first.
// Each field contributes only the bytes its largest value needs, so a
// table of 20k labels costs two digits per symbol, not four.
type radixPlan struct {
	minD   uint64
	n      int
	digits [4 + 4 + 8]radixDigit
}

// add appends the digits of a field whose values reach at most top.
func (p *radixPlan) add(field uint8, top uint64) {
	for b := (bits.Len64(top) + 7) / 8; b > 0; b-- {
		p.digits[p.n] = radixDigit{field: field, shift: uint8(8 * (b - 1))}
		p.n++
	}
}

func (p *radixPlan) digit(it *ShardItem, lvl int) byte {
	switch d := p.digits[lvl]; d.field {
	case 0:
		return byte(it.A >> d.shift)
	case 1:
		return byte(it.B >> d.shift)
	default:
		return byte((uint64(it.D) - p.minD) >> d.shift)
	}
}

// SortShardItems orders items by (A, B, D) — the canonical Snapshot and
// spill-run order — with an in-place MSD radix (American flag) sort over
// 8-bit digits. Digit counts come from the largest A and B and the span
// of D, so DistWild and generic distances sort like any other value.
// Buckets below radixCutoff finish with insertion sort. The sort needs
// no scratch proportional to len(items) and is not stable: N rides
// along as payload, and equal keys come out in no particular order.
func SortShardItems(items []ShardItem) {
	if len(items) <= radixCutoff {
		insertionSortShardItems(items)
		return
	}
	var maxA, maxB uint32
	minD, maxD := items[0].D, items[0].D
	for i := range items {
		it := &items[i]
		maxA, maxB = max(maxA, it.A), max(maxB, it.B)
		minD, maxD = min(minD, it.D), max(maxD, it.D)
	}
	p := radixPlan{minD: uint64(minD)}
	p.add(0, uint64(maxA))
	p.add(1, uint64(maxB))
	p.add(2, uint64(maxD)-uint64(minD))
	p.sort(items, 0)
}

// sort orders items, whose digits above lvl all agree, by the digits
// from lvl on.
func (p *radixPlan) sort(items []ShardItem, lvl int) {
	for ; lvl < p.n; lvl++ {
		if len(items) <= radixCutoff {
			insertionSortShardItems(items)
			return
		}
		var count [256]int
		for i := range items {
			count[p.digit(&items[i], lvl)]++
		}
		lo, hi := 0, 255
		for count[lo] == 0 {
			lo++
		}
		for count[hi] == 0 {
			hi--
		}
		if lo == hi {
			continue // one bucket: nothing to move at this digit
		}
		// next[b] is the first unplaced slot of bucket b.
		var next [256]int
		off := 0
		for b := lo; b <= hi; b++ {
			next[b] = off
			off += count[b]
		}
		off = 0
		for b := lo; b <= hi; b++ {
			off += count[b]
			for next[b] < off {
				it := items[next[b]]
				for d := int(p.digit(&it, lvl)); d != b; d = int(p.digit(&it, lvl)) {
					it, items[next[d]] = items[next[d]], it
					next[d]++
				}
				items[next[b]] = it
				next[b]++
			}
		}
		off = 0
		for b := lo; b <= hi; b++ {
			if c := count[b]; c > 1 {
				p.sort(items[off:off+c], lvl+1)
			}
			off += count[b]
		}
		return
	}
}

// insertionSortShardItems orders a short run by (A, B, D).
func insertionSortShardItems(items []ShardItem) {
	for i := 1; i < len(items); i++ {
		for j := i; j > 0 && compareShardItems(items[j], items[j-1]) < 0; j-- {
			items[j], items[j-1] = items[j-1], items[j]
		}
	}
}

// compareShardItems orders items by (A, B, D).
func compareShardItems(x, y ShardItem) int {
	if c := cmp.Compare(x.A, y.A); c != 0 {
		return c
	}
	if c := cmp.Compare(x.B, y.B); c != 0 {
		return c
	}
	return cmp.Compare(x.D, y.D)
}

// SupportOrder returns the record indexes 0..n-1 ordered by descending
// support(i), equal supports in index order: a stable LSD counting sort
// on 16-bit digits of hi − support(i). A support span below 1<<16 —
// every corpus of fewer than 65,536 trees — takes one pass straight
// into the result, with no scratch array.
func SupportOrder(n int, support func(i int) int64) []uint32 {
	perm := make([]uint32, n)
	hi, lo := int64(math.MinInt64), int64(math.MaxInt64)
	for i := 0; i < n; i++ {
		hi, lo = max(hi, support(i)), min(lo, support(i))
	}
	span := bits.Len64(uint64(hi) - uint64(lo))
	if n < 2 || span == 0 {
		for i := range perm {
			perm[i] = uint32(i)
		}
		return perm
	}
	width := min(span, 16)
	passes := (span + width - 1) / width
	count := make([]int, 1<<width)
	// Passes alternate between perm and scratch, arranged so the last
	// one lands in perm.
	bufs := [2][]uint32{perm, nil}
	if passes > 1 {
		bufs[1] = make([]uint32, n)
	}
	var src []uint32 // the previous pass's order; nil is the identity
	for p := 0; p < passes; p++ {
		dst, shift := bufs[(passes-1-p)%2], p*width
		at := func(j int) (i uint32, digit int) {
			i = uint32(j)
			if src != nil {
				i = src[j]
			}
			return i, int((uint64(hi)-uint64(support(int(i))))>>shift) & (1<<width - 1)
		}
		clear(count)
		for j := 0; j < n; j++ {
			_, d := at(j)
			count[d]++
		}
		sum := 0
		for d, c := range count {
			count[d] = sum
			sum += c
		}
		for j := 0; j < n; j++ {
			i, d := at(j)
			dst[count[d]] = i
			count[d]++
		}
		src = dst
	}
	return perm
}
