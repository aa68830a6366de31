package core

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"treemine/internal/oracle"
	"treemine/internal/tree"
)

// MineISet mines t into an interned item multiset over syms, which must
// already contain every label of t (use Symbols.InternTree). It is the
// forest-scale building block: callers holding one shared symbol table
// mine many trees and compare the results without ever touching strings.
// opts.MaxDist must be at most MaxPackedDist.
func MineISet(t *tree.Tree, opts Options, syms *Symbols) ISet {
	out := make(ISet)
	mineIKeys(t, opts, syms, func(k IKey, n int32) { out[k] = n })
	return out
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

// TestProfileTDistDifferential pins the merge-join distance to the
// oracle's map-based distance: for random tree pairs, across all four
// variants and a MaxDist sweep crossing the packable boundary, TDist,
// TDistItems and TDistProfiles on string and on packed profiles all
// equal oracle.TDist, bit for bit (each computes 1 − |∩|/|∪| from exact
// integer cardinalities, so float equality is the correct assertion).
func TestProfileTDistDifferential(t *testing.T) {
	f := func(seed int64, size1, size2, alpha, maxD, minOcc uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		t1 := randAlphaTree(rng, int(size1)%40+1, int(alpha)%6+1)
		t2 := randAlphaTree(rng, int(size2)%40+1, int(alpha)%6+1)
		opts := Options{MaxDist: Dist(int(maxD) % 20), MinOccur: int(minOcc)%3 + 1}
		s1, s2 := Mine(t1, opts), Mine(t2, opts)
		sets := naiveSets(opts, t1, t2)
		for _, v := range allVariants {
			want := oracle.TDist(sets[0], sets[1], oracle.View(v))
			if got := TDist(t1, t2, v, opts); got != want {
				t.Logf("%v opts=%+v: TDist %v != oracle %v", v, opts, got, want)
				return false
			}
			if got := TDistItems(s1, s2, v); got != want {
				t.Logf("%v opts=%+v: TDistItems %v != oracle %v", v, opts, got, want)
				return false
			}
			if got := TDistProfiles(NewProfileItems(s1, v), NewProfileItems(s2, v)); got != want {
				t.Logf("%v opts=%+v: string profiles %v != oracle %v", v, opts, got, want)
				return false
			}
			if !packable(opts.MaxDist) {
				continue
			}
			p1, p2 := packedProfiles(t1, t2, opts, v)
			if got := TDistProfiles(p1, p2); got != want {
				t.Logf("%v opts=%+v: packed profiles %v != oracle %v", v, opts, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// packedProfiles mines two trees over one shared symbol table into
// packed profiles under the variant.
func packedProfiles(t1, t2 *tree.Tree, opts Options, v Variant) (*Profile, *Profile) {
	syms := NewSymbols()
	syms.InternTree(t1)
	syms.InternTree(t2)
	return NewProfileISet(MineISet(t1, opts, syms), v), NewProfileISet(MineISet(t2, opts, syms), v)
}

// TestProfileSimDifferential pins σ to the oracle the same way: for
// random tree pairs over a MaxDist sweep crossing the packable boundary
// and MinOccur 1–3, Sim, AvgSim, SimItems and SimProfiles on string and
// on packed profiles all equal oracle.Sim bit for bit (the histogram
// sum adds the same terms in the same order as the oracle's sorted
// sum), and σ(C,T) == σ(T,C) exactly.
func TestProfileSimDifferential(t *testing.T) {
	f := func(seed int64, size1, size2, alpha, maxD, minOcc uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		t1 := randAlphaTree(rng, int(size1)%40+1, int(alpha)%6+1)
		t2 := randAlphaTree(rng, int(size2)%40+1, int(alpha)%6+1)
		opts := Options{MaxDist: Dist(int(maxD) % 20), MinOccur: int(minOcc)%3 + 1}
		s1, s2 := Mine(t1, opts), Mine(t2, opts)
		sets := naiveSets(opts, t1, t2)
		want := oracle.Sim(sets[0], sets[1])
		if back := oracle.Sim(sets[1], sets[0]); back != want {
			t.Logf("opts=%+v: oracle asymmetric %v != %v", opts, back, want)
			return false
		}
		check := func(name string, got float64) bool {
			if got != want {
				t.Logf("opts=%+v: %s %v != oracle %v", opts, name, got, want)
			}
			return got == want
		}
		sp1, sp2 := NewProfileItems(s1, VariantDistOccur), NewProfileItems(s2, VariantDistOccur)
		ok := check("Sim", Sim(t1, t2, opts)) && check("Sim reversed", Sim(t2, t1, opts)) &&
			check("AvgSim", AvgSim(t1, []*tree.Tree{t2}, opts)) &&
			check("SimItems", SimItems(s1, s2)) && check("SimItems reversed", SimItems(s2, s1)) &&
			check("string SimProfiles", SimProfiles(sp1, sp2)) &&
			check("string SimProfiles reversed", SimProfiles(sp2, sp1))
		if !ok || !packable(opts.MaxDist) {
			return ok
		}
		p1, p2 := packedProfiles(t1, t2, opts, VariantDistOccur)
		return check("packed SimProfiles", SimProfiles(p1, p2)) &&
			check("packed SimProfiles reversed", SimProfiles(p2, p1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestProfileTotalsMatchViews checks the cached totals against the view
// maps they replace, and that posting lists are sorted and duplicate-free
// (the merge-join's invariants).
func TestProfileTotalsMatchViews(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		tr := randAlphaTree(rng, rng.Intn(50)+2, rng.Intn(5)+1)
		opts := DefaultOptions()
		syms := NewSymbols()
		syms.InternTree(tr)
		is := MineISet(tr, opts, syms)
		items := Mine(tr, opts)
		for _, v := range allVariants {
			p := NewProfileISet(is, v)
			view := naiveSets(opts, tr)[0].Project(oracle.View(v))
			if want := int64(view.Total()); p.Total() != want {
				t.Fatalf("%v: Total %d != view total %d", v, p.Total(), want)
			}
			if want := len(view); p.Len() != want {
				t.Fatalf("%v: Len %d != view len %d", v, p.Len(), want)
			}
			for i := 1; i < len(p.posts); i++ {
				if p.posts[i-1].Key >= p.posts[i].Key {
					t.Fatalf("%v: postings not strictly sorted at %d", v, i)
				}
			}
			sp := NewProfileItems(items, v)
			for i := 1; i < len(sp.sposts); i++ {
				if CompareKeys(sp.sposts[i-1].Key, sp.sposts[i].Key) >= 0 {
					t.Fatalf("%v: string postings not strictly sorted at %d", v, i)
				}
			}
		}
	}
}

// TestSortRun holds the radix sort to a comparison sort on runs whose
// keys differ in every byte, in three, in one, or in none (an odd
// number of passes ends in the scratch run).
func TestSortRun(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 2, 40, 3000} {
		for _, mask := range []IKey{^IKey(0), 0xff_ff00_00f0, 0xff, 0} {
			run := make([]Posting, n)
			for i := range run {
				run[i] = Posting{Key: IKey(rng.Uint64()) & mask, N: int64(i)}
			}
			want := slices.Clone(run)
			slices.SortStableFunc(want, func(a, b Posting) int { return cmp.Compare(a.Key, b.Key) })
			if sortRun(run); !slices.Equal(run, want) {
				t.Fatalf("n=%d mask=%#x: radix order differs from a stable sort", n, uint64(mask))
			}
		}
	}
}

// TestTDistProfilesZeroAlloc is the regression gate on the pairwise
// inner loops: one profile-to-profile distance must allocate nothing, on
// both the packed and the string-keyed kinds, and neither may one
// packed similarity score. This is what keeps
// cluster.TDistMatrix and the kernel search from drifting back onto
// per-pair map rebuilds.
func TestTDistProfilesZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	t1 := randAlphaTree(rng, 60, 4)
	t2 := randAlphaTree(rng, 60, 4)
	packedOpts := DefaultOptions()
	syms := NewSymbols()
	syms.InternTree(t1)
	syms.InternTree(t2)
	p1 := NewProfileISet(MineISet(t1, packedOpts, syms), VariantDistOccur)
	p2 := NewProfileISet(MineISet(t2, packedOpts, syms), VariantDistOccur)
	if p1.Len() == 0 || p2.Len() == 0 {
		t.Fatal("fixture mined empty profiles")
	}
	if n := testing.AllocsPerRun(100, func() { TDistProfiles(p1, p2) }); n != 0 {
		t.Errorf("packed TDistProfiles allocates %v per op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { SimProfiles(p1, p2) }); n != 0 {
		t.Errorf("packed SimProfiles allocates %v per op, want 0", n)
	}
	stringOpts := Options{MaxDist: MaxPackedDist + 2, MinOccur: 1}
	q1 := NewProfileItems(Mine(t1, stringOpts), VariantDistOccur)
	q2 := NewProfileItems(Mine(t2, stringOpts), VariantDistOccur)
	if n := testing.AllocsPerRun(100, func() { TDistProfiles(q1, q2) }); n != 0 {
		t.Errorf("string TDistProfiles allocates %v per op, want 0", n)
	}
}

// TestTDistProfilesKindMismatch: comparing a packed against a
// string-keyed profile is a programming error and must panic — unless
// one side is empty, in which case the distance is well defined without
// looking at any key.
func TestTDistProfilesKindMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := randAlphaTree(rng, 30, 3)
	syms := NewSymbols()
	syms.InternTree(tr)
	packed := NewProfileISet(MineISet(tr, DefaultOptions(), syms), VariantDistOccur)
	str := NewProfileItems(Mine(tr, DefaultOptions()), VariantDistOccur)
	if packed.Len() == 0 || str.Len() == 0 {
		t.Fatal("fixture mined empty profiles")
	}
	if got := TDistProfiles(packed, &Profile{}); got != 1 {
		t.Fatalf("packed vs empty = %v, want 1", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("mixed-kind TDistProfiles did not panic")
		}
	}()
	TDistProfiles(packed, str)
}
