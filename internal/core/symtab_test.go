package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

	"treemine/internal/oracle"
)

func TestSymbolsInternLookup(t *testing.T) {
	s := NewSymbols()
	a := s.Intern("alpha")
	b := s.Intern("beta")
	if a == b {
		t.Fatal("distinct labels share an ID")
	}
	if got := s.Intern("alpha"); got != a {
		t.Fatalf("re-intern = %d, want %d", got, a)
	}
	if id, ok := s.Lookup("beta"); !ok || id != b {
		t.Fatalf("Lookup(beta) = %d,%v", id, ok)
	}
	if _, ok := s.Lookup("gamma"); ok {
		t.Fatal("Lookup on missing label succeeded")
	}
	if s.Label(a) != "alpha" || s.Label(b) != "beta" {
		t.Fatal("Label round trip failed")
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	// The empty string is a valid label.
	e := s.Intern("")
	if s.Label(e) != "" || s.Len() != 3 {
		t.Fatal("empty label not interned")
	}
	s.reset()
	if s.Len() != 0 {
		t.Fatalf("Len after reset = %d", s.Len())
	}
	if got := s.Intern("beta"); got != 0 {
		t.Fatalf("first ID after reset = %d, want 0", got)
	}
}

// TestSymbolsInternCopiesLabel: the table keeps its own copy of a new
// label, so a label sliced from a parsed chunk does not pin the chunk.
func TestSymbolsInternCopiesLabel(t *testing.T) {
	chunk := "(alpha,beta);"
	label := chunk[1:6]
	s := NewSymbols()
	id := s.Intern(label)
	stored := s.Label(id)
	if stored != "alpha" {
		t.Fatalf("Label = %q, want alpha", stored)
	}
	if unsafe.StringData(stored) == unsafe.StringData(label) {
		t.Fatal("interned label aliases the caller's buffer")
	}
	if got := s.Intern(chunk[1:6]); got != id {
		t.Fatalf("re-intern = %d, want %d", got, id)
	}
}

func TestSymbolsInternTree(t *testing.T) {
	tr := handTree(t)
	s := NewSymbols()
	s.InternTree(tr)
	// handTree has labels a..g and two unlabeled nodes.
	if s.Len() != 7 {
		t.Fatalf("Len = %d, want 7", s.Len())
	}
	for _, l := range []string{"a", "b", "c", "d", "e", "f", "g"} {
		if _, ok := s.Lookup(l); !ok {
			t.Errorf("label %q missing", l)
		}
	}
}

func TestIKeyPackRoundTrip(t *testing.T) {
	cases := []struct {
		a, b uint32
		d    Dist
	}{
		{0, 0, 0},
		{0, 0, DistWild},
		{1, 2, D(3)},
		{2, 1, D(3)}, // canonicalized
		{MaxSymbols - 1, 0, MaxPackedDist},
		{MaxSymbols - 1, MaxSymbols - 1, MaxPackedDist},
		{7, 7, DistWild},
	}
	for _, c := range cases {
		k := NewIKey(c.a, c.b, c.d)
		a, b := k.Syms()
		wantA, wantB := c.a, c.b
		if wantB < wantA {
			wantA, wantB = wantB, wantA
		}
		if a != wantA || b != wantB || k.Dist() != c.d {
			t.Errorf("NewIKey(%d,%d,%s) unpacked to (%d,%d,%s)", c.a, c.b, c.d, a, b, k.Dist())
		}
	}
}

func TestIKeyPackProperty(t *testing.T) {
	f := func(a, b uint32, dh uint8) bool {
		a %= MaxSymbols
		b %= MaxSymbols
		d := Dist(int(dh)%int(MaxPackedDist+2)) - 1 // DistWild .. MaxPackedDist
		k := NewIKey(a, b, d)
		ga, gb := k.Syms()
		if b < a {
			a, b = b, a
		}
		return ga == a && gb == b && k.Dist() == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIKeyKeyConversion(t *testing.T) {
	s := NewSymbols()
	// Intern in reverse lexicographic order so symbol order ≠ label order.
	z := s.Intern("z")
	a := s.Intern("a")
	k := NewIKey(z, a, D(1)) // canonical by ID puts z's ID first
	if got, want := k.Key(s), NewKey("a", "z", D(1)); got != want {
		t.Fatalf("Key = %v, want %v (string re-canonicalization)", got, want)
	}
}

// TestISetViewsMatchItemSetViews: a packed profile's postings, converted
// back to string keys, are exactly the item set's variant view — the
// in-place projection on IKeys computes what the map views compute.
func TestISetViewsMatchItemSetViews(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := randLabeledTree(rng, 50)
	opts := Options{MaxDist: D(4), MinOccur: 1}
	syms := NewSymbols()
	syms.InternTree(tr)
	is := MineISet(tr, opts, syms)
	items := Mine(tr, opts)
	if !reflect.DeepEqual(is.ToItemSet(syms, 1), items) {
		t.Fatal("MineISet does not match Mine")
	}
	for _, v := range allVariants {
		got := oracle.Items{}
		for _, pt := range NewProfileISet(is, v).posts {
			k := pt.Key.Key(syms)
			got[oracle.Key{A: k.A, B: k.B, D: int(k.D)}] = int(pt.N)
		}
		if want := naiveSets(opts, tr)[0].Project(oracle.View(v)); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: packed projection %v != string view %v", v, got, want)
		}
	}
}

func TestAccumDenseAndMapModesAgree(t *testing.T) {
	type op struct {
		a, b uint32
		dc   int
		n    int32
	}
	rng := rand.New(rand.NewSource(5))
	var ops []op
	for i := 0; i < 500; i++ {
		ops = append(ops, op{uint32(rng.Intn(8)), uint32(rng.Intn(8)), rng.Intn(3), int32(rng.Intn(7) - 3)})
	}
	collect := func(ac *accum) map[IKey]int32 {
		out := map[IKey]int32{}
		ac.drain(func(a, b uint32, dc int, n int32) { out[NewIKey(a, b, Dist(dc))] = n })
		return out
	}
	var dense, asMap accum
	dense.init(8, 3) // 192 cells: dense
	if dense.m != nil {
		t.Fatal("expected dense mode")
	}
	asMap.init(2048, 3) // over maxDenseCells: map
	if asMap.m == nil {
		t.Fatal("expected map mode")
	}
	for _, o := range ops {
		dense.add(o.a, o.b, o.dc, o.n)
		asMap.add(o.a, o.b, o.dc, o.n)
	}
	d, m := collect(&dense), collect(&asMap)
	if !reflect.DeepEqual(d, m) {
		t.Fatalf("dense %v != map %v", d, m)
	}
	// Draining resets: a second pass over the same ops gives the same
	// answer (cells including transient zeros were fully cleared).
	for _, o := range ops {
		dense.add(o.a, o.b, o.dc, o.n)
	}
	if again := collect(&dense); !reflect.DeepEqual(again, d) {
		t.Fatalf("reused accum %v != first pass %v", again, d)
	}
}

func TestAccumTransientZero(t *testing.T) {
	var ac accum
	ac.init(4, 1)
	ac.add(1, 2, 0, 3)
	ac.add(1, 2, 0, -3) // back to zero
	ac.add(1, 2, 0, 5)  // touched again: duplicate touched entry
	got := map[IKey]int32{}
	ac.drain(func(a, b uint32, dc int, n int32) { got[NewIKey(a, b, Dist(dc))] += n })
	want := map[IKey]int32{NewIKey(1, 2, 0): 5}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("drain = %v, want %v", got, want)
	}
}
