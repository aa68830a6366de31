package core

// Symbol-vector level-pair enumeration (DESIGN.md §48): the miner's
// packed hot path. Instead of enumerating the |bucket_i|×|bucket_j|
// node pairs of every child-pair at every depth combination (one
// accum.add per pair, the seed algorithm kept in accumulatePairs as the
// map-mode fallback and ablation baseline), each LCA candidate builds
// per-level *symbol count vectors* — a dense counts-per-symbol array
// plus a bitset of occupied symbols — and derives the cross-child pair
// counts from the totals-minus-same-child identity
//
//	cross(s1, s2) = total_i(s1)·total_j(s2) − Σ_c count_{c,i}(s1)·count_{c,j}(s2)
//
// so pairing two levels is a blocked sweep over occupied symbols with a
// multiply-accumulate of counts, never a loop over node pairs.
//
// The sweeps are word-blocked and row-major: for each canonical row
// symbol (the smaller of the pair) they walk the partner level's
// occupancy bitset word by word, so every write lands on consecutive
// cells of one accumulator row (the accum layout is distance-major for
// exactly this reason), and the masked occupancy words themselves are
// OR-ed into the accumulator's row bitmap — touched-cell tracking costs
// one word operation per 64 symbols instead of a branch per cell.
// Complexity per LCA and level pair drops from Θ(#node pairs) to
// Θ(#occupied symbol pairs + Σ_c per-child correction) — comparable
// when all labels are distinct, and asymptotically smaller the more
// labels repeat (a single-label star mines in O(n)). Correctness is
// pinned bit-for-bit against forEachPair by the LevelVec differential
// tests.

import (
	"math/bits"

	"treemine/internal/tree"
)

// symCount is one sparse histogram entry: a symbol and its occurrence
// count within one (child, level) bucket.
type symCount struct {
	sym uint32
	n   int32
}

// levelVecs is the reusable per-miner scratch of the symbol-vector
// path. All per-LCA state is cleared through the occupancy lists (cost
// O(occupied), never O(alphabet)), so the dense arrays stay zeroed
// between LCAs, trees, and pool reuses by invariant.
type levelVecs struct {
	l  int // alphabet size the vectors are sized for
	nw int // occupancy words per level: ceil(l/64)

	// Per level 1..maxJ (index 0 unused):
	cnt     [][]int32  // dense counts per symbol, summed across children
	occ     [][]uint64 // occupancy bitset over symbols with cnt > 0
	occList [][]uint32 // occupied symbols in first-touch order (for clearing)
	wsum    []uint64   // summary bitset: which occ words are nonzero (valid for nw ≤ 64, i.e. every dense-mode alphabet — only the sweeps consume it)
	total   []int32    // total labeled nodes at the level
	nchild  []int32    // children contributing ≥ 1 node at the level
	only    []int32    // the single contributing child when nchild == 1

	// Per-bucket grouping scratch shared by all levels, used when a
	// bucket is large enough that its same-child correction is cheaper
	// over grouped symbol counts than over raw node pairs.
	childCnt  []int32
	childSyms []uint32
	entA      []symCount
	entB      []symCount
}

// prepare sizes the scratch for an alphabet of l symbols and levels up
// to maxJ, reusing capacity. Dense arrays rely on the cleared-through-
// occList invariant: any cell a previous pass touched was zeroed, so
// re-slicing to a larger length never exposes stale counts.
func (lv *levelVecs) prepare(l, maxJ int) {
	lv.l, lv.nw = l, (l+63)/64
	if len(lv.cnt) < maxJ+1 {
		n := maxJ + 1
		lv.cnt = append(lv.cnt, make([][]int32, n-len(lv.cnt))...)
		lv.occ = append(lv.occ, make([][]uint64, n-len(lv.occ))...)
		lv.occList = append(lv.occList, make([][]uint32, n-len(lv.occList))...)
	}
	if len(lv.total) < maxJ+1 {
		lv.total = make([]int32, maxJ+1)
		lv.nchild = make([]int32, maxJ+1)
		lv.only = make([]int32, maxJ+1)
		lv.wsum = make([]uint64, maxJ+1)
	}
	for k := 1; k <= maxJ; k++ {
		// cnt is padded to whole 64-symbol words so the sweeps can slice
		// exact 64-cell segments aligned with the occupancy words.
		lv.cnt[k] = growI32Zeroed(lv.cnt[k], lv.nw*64)
		lv.occ[k] = growU64Zeroed(lv.occ[k], lv.nw)
	}
	lv.childCnt = growI32Zeroed(lv.childCnt, l)
}

// clear zeroes every cell the last LCA touched, through the occupancy
// lists. It is safe after a partial build (a contained panic): symbols
// enter occList before their count or bit is set, so the list always
// covers every dirty cell.
func (lv *levelVecs) clear() {
	for k := 1; k < len(lv.cnt); k++ {
		list := lv.occList[k]
		if len(list) == 0 {
			continue
		}
		cnt, occ := lv.cnt[k], lv.occ[k]
		for _, s := range list {
			cnt[s] = 0
			occ[s>>6] &^= 1 << (s & 63)
		}
		lv.occList[k] = list[:0]
		lv.wsum[k] = 0
	}
}

// sanitize restores the all-zero invariant unconditionally — called on
// miner release so a pass abandoned mid-LCA (panic containment) cannot
// poison the pool.
func (lv *levelVecs) sanitize() {
	for _, s := range lv.childSyms {
		lv.childCnt[s] = 0
	}
	lv.childSyms = lv.childSyms[:0]
	lv.clear()
}

// lcaLevels returns the deepest level worth building for an LCA with
// the given children: one past the deepest labeled descendant of any
// child, clamped to maxJ. Zero means no level has a labeled node.
func (m *miner) lcaLevels(kids []tree.NodeID) int {
	lm := 0
	for _, c := range kids {
		if v := int(m.mld[c]) + 1; v > lm {
			lm = v
		}
	}
	if lm > m.maxJ {
		lm = m.maxJ
	}
	return lm
}

// accumulateBlocked is the production accumulate: symbol-vector
// enumeration with the word-blocked row-major sweep. ac must be in
// dense mode.
func (m *miner) accumulateBlocked(ac *accum) {
	if m.maxJ == 0 {
		return
	}
	lv := &m.lv
	lv.prepare(m.syms.Len(), m.maxJ)
	t := m.t
	for a := tree.NodeID(0); a < tree.NodeID(t.Size()); a++ {
		kids := m.lcaKids(a)
		if kids == nil {
			continue
		}
		lm := m.lcaLevels(kids)
		if lm == 0 {
			continue
		}
		m.buildLevels(kids, lm)
		for _, p := range m.pairs {
			i, j, dc := p.i, p.j, p.dc
			if j > lm {
				break // m.pairs is nondecreasing in j
			}
			if i == 0 {
				// Vertical pair: a with every labeled node j levels
				// down, whichever child it sits under.
				if t.Labeled(a) {
					sa, cnt := m.nodeSym[a], lv.cnt[j]
					for _, s := range lv.occList[j] {
						ac.add(sa, s, dc, cnt[s])
					}
				}
				continue
			}
			if !lv.pairable(i, j) {
				continue
			}
			// Sweep before correcting: the totals sweep records every cell
			// of the level pair's occupancy pattern (touched list or row
			// bitmap depending on the path), and the same-child correction
			// only ever hits cells inside that pattern, so bump can skip
			// cell tracking entirely (see accum.bump).
			if i == j {
				if len(lv.occList[i]) <= sparseSweepMax/2 {
					lv.sweepSameSparse(ac, i, dc)
				} else {
					lv.sweepSame(ac, i, dc)
				}
			} else if len(lv.occList[i])+len(lv.occList[j]) <= sparseSweepMax {
				lv.sweepCrossSparse(ac, i, j, dc)
			} else {
				lv.sweepCross(ac, i, j, dc)
			}
			m.subtractSameChild(ac, kids, i, j, dc)
		}
		lv.clear()
	}
}

// pairable reports whether the level pair (i, j) can produce any
// cross-child pair at the current LCA: both levels populated, and not
// all nodes concentrated under one child.
func (lv *levelVecs) pairable(i, j int) bool {
	if lv.total[i] == 0 || lv.total[j] == 0 {
		return false
	}
	if i == j {
		return lv.nchild[i] > 1
	}
	return lv.nchild[i] > 1 || lv.nchild[j] > 1 || lv.only[i] != lv.only[j]
}

// buildLevels fills the level vectors for one LCA: for every level
// k ≤ lm, the dense total counts and the occupancy bitset. Cost is one
// pass over the LCA's buckets; the mld bound skips children that cannot
// reach a level, and the common single-node bucket takes a direct path
// past the multi-node loop.
func (m *miner) buildLevels(kids []tree.NodeID, lm int) {
	lv := &m.lv
	nodeSym, mld := m.nodeSym, m.mld
	for k := 1; k <= lm; k++ {
		cnt, occ, occList := lv.cnt[k], lv.occ[k], lv.occList[k]
		wsum := lv.wsum[k]
		total, nchild, only := int32(0), int32(0), int32(-1)
		for ci, c := range kids {
			if int(mld[c]) < k-1 {
				continue
			}
			bkt := m.bucket(c, k)
			switch {
			case len(bkt) == 1:
				s := nodeSym[bkt[0]]
				if cnt[s] == 0 {
					occList = append(occList, s)
					w := s >> 6
					if occ[w] == 0 {
						wsum |= 1 << (w & 63)
					}
					occ[w] |= 1 << (s & 63)
				}
				cnt[s]++
				total++
				if nchild == 0 {
					only = int32(ci)
				}
				nchild++
			case len(bkt) > 1:
				for _, v := range bkt {
					s := nodeSym[v]
					if cnt[s] == 0 {
						occList = append(occList, s)
						w := s >> 6
						if occ[w] == 0 {
							wsum |= 1 << (w & 63)
						}
						occ[w] |= 1 << (s & 63)
					}
					cnt[s]++
				}
				total += int32(len(bkt))
				if nchild == 0 {
					only = int32(ci)
				}
				nchild++
			}
		}
		// Re-extract the occupancy list in sorted symbol order from the
		// bitset (first-touch order is arbitrary). Sorted lists are what
		// let the sparse sweeps below walk rows canonically with a
		// two-pointer split instead of a min/max branch per cell. Gated
		// on the word summary being valid (nw ≤ 64 — every dense-mode
		// alphabet); beyond that only map mode runs, which never sweeps.
		if len(occList) > 1 && lv.nw <= 64 {
			occList = occList[:0]
			for su := wsum; su != 0; {
				w := bits.TrailingZeros64(su)
				su &= su - 1
				for bw := occ[w]; bw != 0; {
					occList = append(occList, uint32(w<<6+bits.TrailingZeros64(bw)))
					bw &= bw - 1
				}
			}
		}
		lv.occList[k] = occList
		lv.wsum[k] = wsum
		lv.total[k], lv.nchild[k], lv.only[k] = total, nchild, only
	}
}

// groupThreshold is the bucket size above which a same-child correction
// groups the bucket into sparse symbol counts first. Small buckets are
// corrected over raw node pairs (fewer instructions); large ones (label-
// dense shapes) must group or the correction degrades to the seed's
// quadratic node-pair cost — grouping caps it at O(distinct²).
const groupThreshold = 8

// groupBucket collapses a bucket into sparse (symbol, count) entries
// using the shared counting scratch.
func (m *miner) groupBucket(bkt []tree.NodeID, ents []symCount) []symCount {
	lv := &m.lv
	for _, v := range bkt {
		s := m.nodeSym[v]
		if lv.childCnt[s] == 0 {
			lv.childSyms = append(lv.childSyms, s)
		}
		lv.childCnt[s]++
	}
	for _, s := range lv.childSyms {
		ents = append(ents, symCount{sym: s, n: lv.childCnt[s]})
		lv.childCnt[s] = 0
	}
	lv.childSyms = lv.childSyms[:0]
	return ents
}

// subtractSameChild applies the correction term of the counting
// identity: pairs whose two nodes share a child subtree have a deeper
// LCA and must not be counted here, so each child's own cross product
// is subtracted after the totals sweep adds the full product (the sweep
// must come first — see accum.bump). Corrections read the buckets
// directly; no per-child histogram is materialized.
func (m *miner) subtractSameChild(ac *accum, kids []tree.NodeID, i, j, dc int) {
	if j == 1 {
		// Level 1 below the LCA is the child itself: every bucket has at
		// most one node, so a (1,1) pair can never share a child.
		return
	}
	nodeSym, lv := m.nodeSym, &m.lv
	if i == j {
		for _, c := range kids {
			bkt := m.bucket(c, i)
			if len(bkt) < 2 {
				continue
			}
			if len(bkt) <= groupThreshold {
				for x, u := range bkt {
					su := nodeSym[u]
					for _, v := range bkt[x+1:] {
						ac.bump(su, nodeSym[v], dc, -1)
					}
				}
				continue
			}
			ents := m.groupBucket(bkt, lv.entA[:0])
			lv.entA = ents[:0]
			for x, e1 := range ents {
				if e1.n > 1 {
					ac.bump(e1.sym, e1.sym, dc, -pairsOf(e1.n))
				}
				for _, e2 := range ents[x+1:] {
					ac.bump(e1.sym, e2.sym, dc, -e1.n*e2.n)
				}
			}
		}
		return
	}
	for _, c := range kids {
		us := m.bucket(c, i)
		if len(us) == 0 {
			continue
		}
		vs := m.bucket(c, j)
		if len(vs) == 0 {
			continue
		}
		if len(us) <= groupThreshold && len(vs) <= groupThreshold {
			for _, u := range us {
				su := nodeSym[u]
				for _, v := range vs {
					ac.bump(su, nodeSym[v], dc, -1)
				}
			}
			continue
		}
		eu := m.groupBucket(us, lv.entA[:0])
		lv.entA = eu[:0]
		ev := m.groupBucket(vs, lv.entB[:0])
		lv.entB = ev[:0]
		for _, e1 := range eu {
			for _, e2 := range ev {
				ac.bump(e1.sym, e2.sym, dc, -e1.n*e2.n)
			}
		}
	}
}

// sweepSame adds the totals product for a same-level pair (i == j):
// every unordered occupied symbol pair once, diagonal as C(n, 2). Row
// s1 covers the strictly-greater symbols, so each cell has exactly one
// canonical home and every write moves forward through one row. The
// inner multiply-accumulate runs over exact 64-cell segments aligned
// with the occupancy words — both sides padded to word multiples — so
// the masked bit offset indexes them with no bounds checks.
func (lv *levelVecs) sweepSame(ac *accum, k, dc int) {
	cnt, occ := lv.cnt[k], lv.occ[k]
	sum := lv.wsum[k]
	l, nw := ac.l, ac.nw
	for su := sum; su != 0; {
		w1 := bits.TrailingZeros64(su)
		su &= su - 1
		bits1 := occ[w1]
		for bits1 != 0 {
			b1 := bits.TrailingZeros64(bits1)
			bits1 &= bits1 - 1
			s1 := w1<<6 + b1
			n1 := cnt[s1]
			row := dc*l + s1
			rowBase := row * ac.rowLen
			rowWords := ac.rows[row*ac.nw : row*ac.nw+nw]
			ac.markRow(row)
			if n1 > 1 {
				ac.dense[rowBase+s1] += pairsOf(n1)
				rowWords[w1] |= 1 << uint(b1)
			}
			// Symbols strictly above s1: the rest of this word, then
			// the remaining occupied words from the summary.
			bw := occ[w1] &^ (^uint64(0) >> (63 - uint(b1)))
			sw := sum &^ (uint64(1)<<uint(w1+1) - 1)
			for wb := w1; ; {
				if bw != 0 {
					rowWords[wb] |= bw
					o := wb << 6
					seg := ac.dense[rowBase+o:][:64]
					cs := cnt[o:][:64]
					for bw != 0 {
						b := bits.TrailingZeros64(bw) & 63
						bw &= bw - 1
						seg[b] += n1 * cs[b]
					}
				}
				if sw == 0 {
					break
				}
				wb = bits.TrailingZeros64(sw)
				sw &= sw - 1
				bw = occ[wb]
			}
		}
	}
}

// sweepCross adds the totals product for a two-level pair (i < j).
// Rows run over the union of the two levels' occupied symbols; row r
// receives n_i(r)·n_j(t) for t ≥ r and n_j(r)·n_i(t) for t > r, which
// together cover every ordered level-i × level-j symbol pair exactly
// once in its canonical (min, max) cell — with every write row-major,
// never scattered down a column.
func (lv *levelVecs) sweepCross(ac *accum, i, j, dc int) {
	cntI, occI := lv.cnt[i], lv.occ[i]
	cntJ, occJ := lv.cnt[j], lv.occ[j]
	sumI, sumJ := lv.wsum[i], lv.wsum[j]
	l, nw := ac.l, ac.nw
	for su := sumI | sumJ; su != 0; {
		w1 := bits.TrailingZeros64(su)
		su &= su - 1
		u := occI[w1] | occJ[w1]
		for u != 0 {
			b1 := bits.TrailingZeros64(u)
			u &= u - 1
			r := w1<<6 + b1
			row := dc*l + r
			rowBase := row * ac.rowLen
			rowWords := ac.rows[row*ac.nw : row*ac.nw+nw]
			ac.markRow(row)
			if nI := cntI[r]; nI != 0 {
				// Level-j partners at or above r (diagonal included:
				// the two depth roles make (r, r) a full product).
				bw := occJ[w1] &^ (1<<uint(b1) - 1)
				sw := sumJ &^ (uint64(1)<<uint(w1+1) - 1)
				for wb := w1; ; {
					if bw != 0 {
						rowWords[wb] |= bw
						o := wb << 6
						seg := ac.dense[rowBase+o:][:64]
						cs := cntJ[o:][:64]
						for bw != 0 {
							b := bits.TrailingZeros64(bw) & 63
							bw &= bw - 1
							seg[b] += nI * cs[b]
						}
					}
					if sw == 0 {
						break
					}
					wb = bits.TrailingZeros64(sw)
					sw &= sw - 1
					bw = occJ[wb]
				}
			}
			if nJ := cntJ[r]; nJ != 0 {
				// Level-i partners strictly above r (the diagonal was
				// counted by the first stream).
				bw := occI[w1] &^ (^uint64(0) >> (63 - uint(b1)))
				sw := sumI &^ (uint64(1)<<uint(w1+1) - 1)
				for wb := w1; ; {
					if bw != 0 {
						rowWords[wb] |= bw
						o := wb << 6
						seg := ac.dense[rowBase+o:][:64]
						cs := cntI[o:][:64]
						for bw != 0 {
							b := bits.TrailingZeros64(bw) & 63
							bw &= bw - 1
							seg[b] += nJ * cs[b]
						}
					}
					if sw == 0 {
						break
					}
					wb = bits.TrailingZeros64(sw)
					sw &= sw - 1
					bw = occI[wb]
				}
			}
		}
	}
}

// sparseSweepMax is the combined occupied-symbol count at or below which
// a level pair takes the sparse sweeps instead of the word-blocked ones.
// Small levels are the overwhelmingly common case (a fanout-f LCA rarely
// sees more than a few dozen distinct labels per level), and there the
// word sweep's per-row masking and summary machinery costs more than the
// cells it amortizes over; the sparse sweeps are plain pipelined loops
// over the sorted occupancy lists. Large levels (high-fanout hubs) still
// take the word sweeps, whose per-64-cell bitmap marking and bounds-
// check-free segments win once rows carry many cells.
const sparseSweepMax = 32

// sweepSameSparse is the totals product for a same-level pair over the
// sorted occupancy list: row s1 covers s2 > s1 in ascending order, so
// every write is row-major with the row base hoisted. Cells are tracked
// through the accumulator's touched list (first-touch append, exactly
// like accum.add) rather than the row bitmap — at sparse sizes one
// predictable compare per cell beats a read-modify-write of a bitmap
// word. Correction bumps stay safe: every cell they hit was just
// visited (and recorded) by this sweep.
func (lv *levelVecs) sweepSameSparse(ac *accum, k, dc int) {
	list, cnt := lv.occList[k], lv.cnt[k]
	dense, touched := ac.dense, ac.touched
	rowLen := ac.rowLen
	base := dc * ac.l
	for x, s1 := range list {
		n1 := cnt[s1]
		rowBase := (base + int(s1)) * rowLen
		if n1 > 1 {
			cell := rowBase + int(s1)
			if dense[cell] == 0 {
				touched = append(touched, int32(cell))
			}
			dense[cell] += pairsOf(n1)
		}
		for _, s2 := range list[x+1:] {
			cell := rowBase + int(s2)
			old := dense[cell]
			if old == 0 {
				touched = append(touched, int32(cell))
			}
			dense[cell] = old + n1*cnt[s2]
		}
	}
	ac.touched = touched
}

// sweepCrossSparse is the totals product for a two-level pair over the
// two sorted occupancy lists. The canonical (min, max) split becomes a
// two-pointer walk: stream 1 writes row u ∈ I against partners v ∈ J
// with v ≥ u (diagonal included — the two depth roles make it a full
// product), stream 2 writes row u ∈ J against v ∈ I with v > u. Both
// pointers only ever move forward, so the split costs O(|I|+|J|) total.
func (lv *levelVecs) sweepCrossSparse(ac *accum, i, j, dc int) {
	listI, cntI := lv.occList[i], lv.cnt[i]
	listJ, cntJ := lv.occList[j], lv.cnt[j]
	dense, touched := ac.dense, ac.touched
	rowLen := ac.rowLen
	base := dc * ac.l
	p := 0
	for _, s1 := range listI {
		for p < len(listJ) && listJ[p] < s1 {
			p++
		}
		n1 := cntI[s1]
		rowBase := (base + int(s1)) * rowLen
		for _, s2 := range listJ[p:] {
			cell := rowBase + int(s2)
			old := dense[cell]
			if old == 0 {
				touched = append(touched, int32(cell))
			}
			dense[cell] = old + n1*cntJ[s2]
		}
	}
	q := 0
	for _, s1 := range listJ {
		for q < len(listI) && listI[q] <= s1 {
			q++
		}
		n1 := cntJ[s1]
		rowBase := (base + int(s1)) * rowLen
		for _, s2 := range listI[q:] {
			cell := rowBase + int(s2)
			old := dense[cell]
			if old == 0 {
				touched = append(touched, int32(cell))
			}
			dense[cell] = old + n1*cntI[s2]
		}
	}
	ac.touched = touched
}

// pairsOf returns C(n, 2) with a 64-bit intermediate, so the product
// cannot overflow before the halving even for levels of ~10⁵ same-label
// nodes (the truncation to int32 then matches what one-at-a-time
// accumulation would have wrapped to).
func pairsOf(n int32) int32 {
	return int32(int64(n) * int64(n-1) / 2)
}

// growI32Zeroed returns s resized to n with the extension region
// guaranteed zero under the cleared-through-occList invariant (touched
// cells are always reset before the slice shrinks or is reused).
func growI32Zeroed(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growU64Zeroed(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}
