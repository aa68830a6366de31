package core

import "math/bits"

// accum accumulates per-item counts over interned symbol pairs. For small
// alphabets it is a flat dense table indexed by (dist, symA, symB) with
// distance-major layout and rows padded to whole 64-symbol words — cell
// (dc·l + a)·rowLen + b with rowLen = 64·⌈l/64⌉ — so the symbol-vector
// sweeps of levelvec.go write consecutive cells of one row, and a row's
// 64-cell segments align exactly with the occupancy bitset words the
// sweeps walk (which is what lets their inner loops index segments with
// a provably-in-range masked bit offset, free of bounds checks). Larger
// alphabets fall back to a map keyed by packed IKey. Both modes reuse
// their storage across init calls, which is what lets a pooled miner do
// near-zero allocation on repeat mining.
//
// Dense cells are tracked for O(distinct) drain by two mechanisms that
// coexist in one pass:
//
//   - add (pair enumeration, IgnoreDist's collapse) and the sparse
//     sweeps append each cell to a touched list on its first touch,
//     decoded at drain time with precomputed magic dividers
//     (Granlund–Montgomery) instead of hardware divisions;
//   - the blocked sweeps and handOff mark whole rows at once by OR-ing
//     masked words into a per-row cell bitmap (rows, nw words per row),
//     with a dirty-row list for the drain scan. Bit position recovers
//     the column with shifts, one magic division per row its distance
//     slot and symbol.
//
// Drain consumes every cell it reads, so a cell visited by both
// mechanisms is reported once and zero cells are skipped either way.
//
// A shard's support tables (its pending table, a worker's private table)
// are filled only by handOff from a table of their own geometry, so they
// keep no touched list (DESIGN.md §62).
type accum struct {
	l, nd   int     // symbol count and distance-slot count of the dense table
	nw      int     // bitmap words per row: ceil(l/64)
	rowLen  int     // padded dense row length: nw*64
	dense   []int32 // len l*nd*rowLen when dense, nil when in map mode
	touched []int32 // cells recorded by add that may hold a nonzero count
	rows    []uint64
	dirty   []int32 // dirty rows, each marked once (markRow)
	rowBits []uint64
	divRow  divider // magic divider by rowLen for touched-cell decode
	divL    divider // magic divider by l
	m       ISet    // map mode storage
}

// maxDenseCells caps the dense table size (4 MiB of int32 cells); beyond
// it the accumulator switches to map mode.
const maxDenseCells = 1 << 20

// denseFits reports whether init picks a dense table for l symbols and
// nd distance slots.
func denseFits(l, nd int) bool {
	return int64(l)*int64(nd)*int64((l+63)/64*64) <= maxDenseCells
}

// init prepares the accumulator for an alphabet of l symbols and nd
// distance slots. Storage is reused when capacity allows. The dense
// table, row bitmap, and dirty tracking all rely on the invariant that
// drain and discard zero everything they visited, so reused buffers are
// already clear.
func (ac *accum) init(l, nd int) {
	ac.l, ac.nd = l, nd
	ac.touched = ac.touched[:0]
	ac.dirty = ac.dirty[:0]
	ac.nw = (l + 63) / 64
	ac.rowLen = ac.nw * 64
	if denseFits(l, nd) {
		cells := l * nd * ac.rowLen
		if cap(ac.dense) < cells {
			ac.dense = make([]int32, cells)
		}
		ac.dense = ac.dense[:cells]
		nrw := l * nd * ac.nw
		if cap(ac.rows) < nrw {
			ac.rows = make([]uint64, nrw)
		}
		ac.rows = ac.rows[:nrw]
		nrb := (l*nd + 63) / 64
		if cap(ac.rowBits) < nrb {
			ac.rowBits = make([]uint64, nrb)
		}
		ac.rowBits = ac.rowBits[:nrb]
		ac.divRow = newDivider(uint32(ac.rowLen))
		ac.divL = newDivider(uint32(l))
		ac.m = nil
		return
	}
	ac.dense = nil
	if ac.m == nil {
		ac.m = make(ISet)
	} else {
		clear(ac.m)
	}
}

// add accumulates n occurrences of the unordered symbol pair (a, b) at
// distance slot dc. In map mode dc must be at most MaxPackedDist (as a
// distance); dense mode has no such limit.
func (ac *accum) add(a, b uint32, dc int, n int32) {
	if ac.m != nil {
		ac.m[NewIKey(a, b, Dist(dc))] += n
		return
	}
	if b < a {
		a, b = b, a
	}
	cell := (dc*ac.l+int(a))*ac.rowLen + int(b)
	old := ac.dense[cell]
	if old == 0 {
		ac.touched = append(ac.touched, int32(cell))
	}
	ac.dense[cell] = old + n
}

// bump subtracts (or adds) directly into a dense cell that the current
// level-pair's totals sweep has already marked. It is the symbol-vector
// path's same-child correction and MUST run after the sweep: every
// correction cell is covered by the sweep's occupancy pattern, so bump
// can skip the bitmap and dirty bookkeeping entirely. A cell reduced
// back to zero is skipped by drain.
func (ac *accum) bump(a, b uint32, dc int, n int32) {
	if b < a {
		a, b = b, a
	}
	ac.dense[(dc*ac.l+int(a))*ac.rowLen+int(b)] += n
}

// markRow records a dirty bitmap row exactly once per drain cycle.
func (ac *accum) markRow(row int) {
	w := &ac.rowBits[row>>6]
	if bit := uint64(1) << (row & 63); *w&bit == 0 {
		*w |= bit
		ac.dirty = append(ac.dirty, int32(row))
	}
}

// drain calls f once per item with a nonzero count and resets the
// accumulator. The touched list may carry duplicates (a cell that
// dropped back to zero and was re-added) and may overlap the bitmap
// rows; consuming each cell as it is read makes both harmless.
func (ac *accum) drain(f func(a, b uint32, dc int, n int32)) {
	if ac.m != nil {
		for k, n := range ac.m {
			if n != 0 {
				a, b := k.Syms()
				f(a, b, int(k.Dist()), n)
			}
		}
		clear(ac.m)
		return
	}
	for _, cell := range ac.touched {
		n := ac.dense[cell]
		if n == 0 {
			continue
		}
		ac.dense[cell] = 0
		c := uint32(cell)
		row := ac.divRow.div(c)
		dc := ac.divL.div(row)
		f(row-dc*uint32(ac.l), c-row*uint32(ac.rowLen), int(dc), n)
	}
	ac.touched = ac.touched[:0]
	for _, e := range ac.dirty {
		row := int(e)
		dc := ac.divL.div(uint32(row))
		a := uint32(row) - dc*uint32(ac.l)
		ac.rowBits[row>>6] &^= 1 << (row & 63)
		base, start := row*ac.nw, row*ac.rowLen
		for w := 0; w < ac.nw; w++ {
			bw := ac.rows[base+w]
			if bw == 0 {
				continue
			}
			ac.rows[base+w] = 0
			for bw != 0 {
				b := uint32(w<<6 + bits.TrailingZeros64(bw))
				bw &= bw - 1
				cell := start + int(b)
				if n := ac.dense[cell]; n != 0 {
					ac.dense[cell] = 0
					f(a, b, int(dc), n)
				}
			}
		}
	}
	ac.dirty = ac.dirty[:0]
}

// discard resets the accumulator without reporting its contents. Unlike
// drain it never decodes cells: touched cells are zeroed directly and
// dirty bitmap rows are cleared with one memclr per row.
func (ac *accum) discard() {
	if ac.m != nil {
		clear(ac.m)
		return
	}
	for _, cell := range ac.touched {
		ac.dense[cell] = 0
	}
	ac.touched = ac.touched[:0]
	for _, e := range ac.dirty {
		row := int(e)
		ac.rowBits[row>>6] &^= 1 << (row & 63)
		base, start := row*ac.nw, row*ac.rowLen
		// Clear only the 64-cell segments whose bitmap word has bits:
		// a row is rarely dirty across its whole width.
		for w := 0; w < ac.nw; w++ {
			if ac.rows[base+w] == 0 {
				continue
			}
			ac.rows[base+w] = 0
			o := start + w<<6
			clear(ac.dense[o : o+64])
		}
	}
	ac.dirty = ac.dirty[:0]
}

// handOff moves ac's counts into dst, a dense table of the same
// geometry, and resets ac: each cell holding n ≥ minOccur (≥ 1) adds
// min(n, most) to the same cell of dst and sets its bitmap bit and dirty
// row there — no decode to a key, no re-encode, no touched list in dst
// (DESIGN.md §62). Past the dense limit both tables are maps at that
// geometry, and a key moves as it is.
func (ac *accum) handOff(dst *accum, minOccur, most int32) {
	if ac.m != nil {
		for k, n := range ac.m {
			if n >= minOccur {
				dst.m[k] += min(n, most)
			}
		}
		clear(ac.m)
		return
	}
	for _, c := range ac.touched {
		if n := ac.dense[c]; n >= minOccur {
			dst.dense[c] += min(n, most)
			dst.rows[c>>6] |= 1 << (c & 63)
			dst.markRow(int(ac.divRow.div(uint32(c))))
		}
		ac.dense[c] = 0
	}
	ac.touched = ac.touched[:0]
	for _, row := range ac.dirty {
		ac.rowBits[row>>6] &^= 1 << (row & 63)
		// rowLen is nw·64, so bitmap word w covers cells w·64 … w·64+63.
		kept := uint64(0)
		for w := int(row) * ac.nw; w < int(row+1)*ac.nw; w++ {
			bw, keep := ac.rows[w], uint64(0)
			if bw == 0 {
				continue
			}
			ac.rows[w] = 0
			for ; bw != 0; bw &= bw - 1 {
				c := w<<6 + bits.TrailingZeros64(bw)
				if n := ac.dense[c]; n >= minOccur {
					dst.dense[c] += min(n, most)
					keep |= bw & -bw
				}
				ac.dense[c] = 0
			}
			dst.rows[w] |= keep
			kept |= keep
		}
		if kept != 0 {
			dst.markRow(int(row))
		}
	}
	ac.dirty = ac.dirty[:0]
}

// divider divides a uint32 by a fixed divisor with a multiply and a
// shift (Granlund–Montgomery round-up method): for d not a power of
// two, m = ⌊2^s/d⌋+1 with s = 31+⌈log₂ d⌉ satisfies m·d ∈ [2^s, 2^s+2^ℓ],
// which makes (n·m)>>s exact for all n < 2³¹. Powers of two shift
// directly (mul 0 flags that mode).
type divider struct {
	mul   uint64
	shift uint
}

func newDivider(d uint32) divider {
	if d == 0 {
		return divider{mul: 0, shift: 0} // unused; guards the l=0 degenerate table
	}
	if d&(d-1) == 0 {
		return divider{mul: 0, shift: uint(bits.TrailingZeros32(d))}
	}
	s := 31 + uint(bits.Len32(d-1))
	return divider{mul: (uint64(1)<<s)/uint64(d) + 1, shift: s}
}

func (dv divider) div(n uint32) uint32 {
	if dv.mul == 0 {
		return n >> dv.shift
	}
	return uint32((uint64(n) * dv.mul) >> dv.shift)
}
