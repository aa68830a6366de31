package core

import (
	"cmp"
	"fmt"
	"slices"

	"treemine/internal/tree"
)

// Posting is one entry of a Profile: a packed item key and its projected
// occurrence count.
type Posting struct {
	Key IKey
	N   int64
}

// keyPosting is Posting's string-keyed twin for option sets beyond the
// packable range.
type keyPosting struct {
	Key Key
	N   int64
}

// Profile is a tree's cousin-pair item multiset frozen into a posting
// run sorted by key, with a cached total. It is the one representation
// both of the paper's tree comparisons run on: σ (Eq. 4, SimProfiles)
// on the VariantDistOccur run, and tdist (Eq. 6, TDistProfiles) on the
// run projected to a variant (Project). Each is a single
// allocation-free linear merge-join over two runs. This is the flat
// per-object summary that all-pairs work wants: TreeMiner's scope lists
// and FREQT's per-tree occurrence lists play the same role.
//
// A profile is either packed (postings of IKeys over one symbol table)
// or string-keyed (beyond MaxPackedDist); the two kinds cannot be
// compared against each other. Profiles are safe for concurrent reads;
// only Project mutates one.
type Profile struct {
	posts  []Posting    // packed postings, sorted ascending by Key
	sposts []keyPosting // string-keyed postings, sorted by CompareKeys
	packed bool
	total  int64 // multiset cardinality of the projected view
}

// Len returns the number of distinct postings.
func (p *Profile) Len() int {
	if p.packed {
		return len(p.posts)
	}
	return len(p.sposts)
}

// Total returns the multiset cardinality of the projected view (the
// |cpi(T)| the tdist denominator uses).
func (p *Profile) Total() int64 { return p.total }

// RunProfile wraps a tree's VariantDistOccur posting run as a packed
// profile without copying it: run must be sorted by strictly ascending
// key, over the same symbol table as every profile it meets. The
// profile owns run from then on; Project rewrites it in place.
func RunProfile(run []Posting) Profile {
	p := Profile{posts: run, packed: true}
	for _, pt := range run {
		p.total += pt.N
	}
	return p
}

// NewProfileISet freezes an interned item multiset (all keys from one
// Symbols table) into a packed profile under the variant.
func NewProfileISet(s ISet, v Variant) *Profile {
	run := make([]Posting, 0, len(s))
	for k, n := range s {
		run = append(run, Posting{Key: k, N: int64(n)})
	}
	return packedProfile(run, v)
}

// packedProfile freezes an unordered packed run into a profile under
// the variant: one sort into the VariantDistOccur run, then the
// in-place projection.
func packedProfile(run []Posting, v Variant) *Profile {
	sortRun(run)
	p := RunProfile(run)
	p.Project(v)
	return &p
}

// sortRun orders a run by key: a stable LSD radix sort on the bytes in
// which the keys differ (about four for a few hundred labels),
// ping-ponging with one scratch run.
func sortRun(run []Posting) {
	var or, and IKey = 0, ^IKey(0)
	for _, pt := range run {
		or, and = or|pt.Key, and&pt.Key
	}
	src, dst := run, make([]Posting, len(run))
	for shift := 0; shift < 64; shift += 8 {
		if byte((or^and)>>shift) == 0 {
			continue // every key has the same byte here
		}
		var next [256]int
		for _, pt := range src {
			next[byte(pt.Key>>shift)]++
		}
		for b, sum := 0, 0; b < len(next); b++ {
			next[b], sum = sum, sum+next[b]
		}
		for _, pt := range src {
			d := byte(pt.Key >> shift)
			dst[next[d]] = pt
			next[d]++
		}
		src, dst = dst, src
	}
	copy(run, src)
}

// NewProfileItems freezes a string-keyed item set into a profile under
// the variant, the same way NewProfileISet does on packed keys.
func NewProfileItems(s ItemSet, v Variant) *Profile {
	p := &Profile{sposts: make([]keyPosting, 0, len(s))}
	for k, n := range s {
		p.sposts = append(p.sposts, keyPosting{Key: k, N: int64(n)})
		p.total += int64(n)
	}
	slices.SortFunc(p.sposts, func(a, b keyPosting) int { return CompareKeys(a.Key, b.Key) })
	p.Project(v)
	return p
}

// profiler is the one per-tree profile constructor behind TDist, Sim,
// AvgSim and BuildProfiles. When the options are packable, every tree
// of the forest is interned into one shared Symbols table first (a
// serial pass) and each tree mines on packed keys; beyond MaxPackedDist
// the string-keyed miner runs instead. The returned function is safe
// for concurrent use on the forest's trees.
func profiler(forest []*tree.Tree, v Variant, opts Options) func(*tree.Tree) *Profile {
	if !packable(opts.MaxDist) {
		return func(t *tree.Tree) *Profile { return NewProfileItems(Mine(t, opts), v) }
	}
	syms := NewSymbols()
	for _, t := range forest {
		syms.InternTree(t)
	}
	return func(t *tree.Tree) *Profile {
		var run []Posting
		mineIKeys(t, opts, syms, func(k IKey, n int32) { run = append(run, Posting{Key: k, N: int64(n)}) })
		return packedProfile(run, v)
	}
}

// Project rewrites a VariantDistOccur profile in place into the
// variant's view, in one linear pass that keeps the run sorted: the
// label and occurrence views map every key to its pair's wildcard key
// (which sorts first in the pair's group, so equal keys stay adjacent)
// and sum the counts of equal keys; the label and distance views then
// clamp every count to 1. It panics on an unknown variant.
func (p *Profile) Project(v Variant) {
	var wild, set bool
	switch v {
	case VariantLabel:
		wild, set = true, true
	case VariantDist:
		set = true
	case VariantOccur:
		wild = true
	case VariantDistOccur:
		return
	default:
		panic(fmt.Sprintf("core: unknown variant %d", int(v)))
	}
	p.total = 0
	if p.packed {
		out := p.posts[:0]
		for _, pt := range p.posts {
			if wild {
				pt.Key &^= ikeyDistMask
			}
			if len(out) > 0 && out[len(out)-1].Key == pt.Key {
				out[len(out)-1].N += pt.N
				continue
			}
			out = append(out, pt)
		}
		for i := range out {
			if set {
				out[i].N = 1
			}
			p.total += out[i].N
		}
		p.posts = out
		return
	}
	out := p.sposts[:0]
	for _, pt := range p.sposts {
		if wild {
			pt.Key.D = DistWild
		}
		if len(out) > 0 && out[len(out)-1].Key == pt.Key {
			out[len(out)-1].N += pt.N
			continue
		}
		out = append(out, pt)
	}
	for i := range out {
		if set {
			out[i].N = 1
		}
		p.total += out[i].N
	}
	p.sposts = out
}

// sameKind reports whether two profiles can be merge-joined: it is
// false when either is empty (nothing can be shared), and it panics
// when a packed profile meets a string-keyed one.
func sameKind(p, q *Profile, kernel string) bool {
	switch {
	case p.Len() == 0 || q.Len() == 0:
		return false
	case p.packed != q.packed:
		panic("core: " + kernel + " on profiles of different key kinds")
	}
	return true
}

// TDistProfiles is the cousin-based tree distance of Eq. 6 computed from
// two frozen profiles of the same variant by a linear merge-join over
// their sorted posting lists: Σ min over shared keys gives |∩|, and
// |∪| = total₁ + total₂ − |∩|. It allocates nothing and never hashes —
// the all-pairs hot path of TDistMatrixParallel and the kernel search
// runs entirely here. Both profiles must come from the same engine
// (same Symbols table when packed); mixing a packed and a string-keyed
// profile panics unless one side is empty.
func TDistProfiles(p, q *Profile) float64 {
	var inter int64
	switch {
	case !sameKind(p, q, "TDistProfiles"):
		// Nothing shared; fall through to the union check.
	case p.packed:
		a, b := p.posts, q.posts
		i, j := 0, 0
		for i < len(a) && j < len(b) {
			ka, kb := a[i].Key, b[j].Key
			switch {
			case ka < kb:
				i++
			case ka > kb:
				j++
			default:
				inter += min(a[i].N, b[j].N)
				i++
				j++
			}
		}
	default:
		a, b := p.sposts, q.sposts
		i, j := 0, 0
		for i < len(a) && j < len(b) {
			switch CompareKeys(a[i].Key, b[j].Key) {
			case -1:
				i++
			case 1:
				j++
			default:
				inter += min(a[i].N, b[j].N)
				i++
				j++
			}
		}
	}
	union := p.total + q.total - inter
	if union == 0 {
		return 0
	}
	return 1 - float64(inter)/float64(union)
}

// SimProfiles is the similarity score σ of Eq. 4 computed from two
// VariantDistOccur profiles by a linear merge-join over their pair
// groups: the keys of one label pair are adjacent and ordered by
// distance, with the wildcard key (if any) first, so a group's first
// concrete key carries the pair's smallest distance. Every pair shared
// at concrete distances dc, dt adds 1/(1 + |dc − dt|).
//
// The sum is exact and order-independent: the terms are tallied by
// k = |dc − dt| in halves and added from the largest k down, each value
// as many times as it occurs, which is the ascending order of the terms.
// So σ(C,T) == σ(T,C) bit for bit, and packed and string-keyed profiles
// of the same trees agree. Packed profiles allocate nothing; the same
// kind rules as TDistProfiles apply.
func SimProfiles(p, q *Profile) float64 {
	var small [MaxPackedDist + 1]int64
	hist := small[:]
	switch {
	case !sameKind(p, q, "SimProfiles"):
	case p.packed:
		a, b := p.posts, q.posts
		i, j := 0, 0
		ga, da, ni := postGroup(a, i)
		gb, db, nj := postGroup(b, j)
		for i < len(a) && j < len(b) {
			switch {
			case ga < gb:
				i = ni
				ga, da, ni = postGroup(a, i)
			case ga > gb:
				j = nj
				gb, db, nj = postGroup(b, j)
			default:
				hist = tally(hist, da, db)
				i, j = ni, nj
				ga, da, ni = postGroup(a, i)
				gb, db, nj = postGroup(b, j)
			}
		}
	default:
		a, b := p.sposts, q.sposts
		i, j := 0, 0
		for i < len(a) && j < len(b) {
			ka, kb := a[i].Key, b[j].Key
			c := cmp.Compare(ka.A, kb.A)
			if c == 0 {
				c = cmp.Compare(ka.B, kb.B)
			}
			switch {
			case c < 0:
				i, _ = keyGroup(a, i)
			case c > 0:
				j, _ = keyGroup(b, j)
			default:
				var dc, dt Dist
				i, dc = keyGroup(a, i)
				j, dt = keyGroup(b, j)
				hist = tally(hist, dc, dt)
			}
		}
	}
	sum := 0.0
	for k := len(hist) - 1; k >= 0; k-- {
		term := 1 / (1 + Dist(k).Float())
		for n := hist[k]; n > 0; n-- {
			sum += term
		}
	}
	return sum
}

// postGroup reads the pair group of a packed run starting at i: its
// pair (the wildcard key), its smallest concrete distance (DistWild
// when it has none) and the index just past it.
func postGroup(run []Posting, i int) (pair IKey, d Dist, next int) {
	if i >= len(run) {
		return 0, DistWild, i
	}
	pair, d = run[i].Key&^ikeyDistMask, run[i].Key.Dist()
	for next = i + 1; next < len(run) && run[next].Key&^ikeyDistMask == pair; next++ {
		if d.IsWild() {
			d = run[next].Key.Dist()
		}
	}
	return pair, d, next
}

// keyGroup is postGroup on a string-keyed run: the index past the label
// pair group starting at i, and its smallest concrete distance.
func keyGroup(run []keyPosting, i int) (next int, d Dist) {
	a, b := run[i].Key.A, run[i].Key.B
	d = run[i].Key.D
	for next = i + 1; next < len(run) && run[next].Key.A == a && run[next].Key.B == b; next++ {
		if d.IsWild() {
			d = run[next].Key.D
		}
	}
	return next, d
}

// tally counts one shared pair at distances dc, dt into σ's histogram
// over k = |dc − dt|, growing it past the packed range when the string
// kind needs to; pairs a side only holds as a wildcard add nothing.
func tally(hist []int64, dc, dt Dist) []int64 {
	if dc.IsWild() || dt.IsWild() {
		return hist
	}
	k := int(dc - dt)
	if k < 0 {
		k = -k
	}
	if k >= len(hist) {
		hist = append(hist, make([]int64, k+1-len(hist))...)
	}
	hist[k]++
	return hist
}
