package store

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"treemine/internal/core"
	"treemine/internal/oracle"
	"treemine/internal/tree"
	"treemine/internal/treegen"
)

func fixtureForest(seed int64, n int) []*tree.Tree {
	rng := rand.New(rand.NewSource(seed))
	taxa := treegen.Alphabet(10)
	out := make([]*tree.Tree, n)
	for i := range out {
		out[i] = treegen.Yule(rng, taxa)
	}
	return out
}

func TestBuildAndQuery(t *testing.T) {
	forest := fixtureForest(1, 20)
	opts := core.DefaultOptions()
	ix, err := Build(forest, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumTrees() != 20 {
		t.Fatalf("NumTrees = %d", ix.NumTrees())
	}
	if ix.Entries[0].Name != "tree_1" {
		t.Fatalf("default name = %q", ix.Entries[0].Name)
	}
	// The index holds each tree's item set as the oracle mines it.
	for i, s := range naiveSets(forest, opts) {
		if e := ix.Entries[i]; e.Nodes != forest[i].Size() || len(e.Items) != len(s) {
			t.Fatalf("tree %d: %d nodes, %d items; want %d, %d", i, e.Nodes, len(e.Items), forest[i].Size(), len(s))
		}
		for k, n := range s {
			if got := ix.Entries[i].Items[core.Key{A: k.A, B: k.B, D: core.Dist(k.D)}]; got != n {
				t.Fatalf("tree %d: %v occurs %d times, want %d", i, k, got, n)
			}
		}
	}
}

func TestSupportWildcard(t *testing.T) {
	forest := fixtureForest(2, 10)
	opts := core.DefaultOptions()
	sets := naiveSets(forest, opts)
	fp := oracle.Forest(sets, 1, false)
	if len(fp) == 0 {
		t.Fatal("no pairs")
	}
	k := fp[0].Key
	wild := oracle.Support(sets, k.A, k.B, oracle.Wild)
	if wild < fp[0].Support {
		t.Fatalf("wildcard support %d < exact %d", wild, fp[0].Support)
	}
	if got := core.Support(forest, k.A, k.B, core.DistWild, opts); got != wild {
		t.Fatalf("wildcard support %d, oracle %d", got, wild)
	}
}

func TestNamesValidation(t *testing.T) {
	forest := fixtureForest(3, 3)
	if _, err := Build(forest, []string{"only one"}, core.DefaultOptions()); err == nil {
		t.Fatal("mismatched names accepted")
	}
	ix, err := Build(forest, []string{"a", "b", "c"}, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if ix.Entries[2].Name != "c" {
		t.Fatalf("name = %q", ix.Entries[2].Name)
	}
}

// TestLoadV2RoundTrip: a v2 index file, written by the oracle's
// encoder, loads into the index Build mines from the same trees.
func TestLoadV2RoundTrip(t *testing.T) {
	forest := fixtureForest(4, 15)
	opts := core.DefaultOptions()
	ix, err := Build(forest, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Load(bytes.NewReader(encodeV2(t, forest, opts)))
	if err != nil {
		t.Fatal(err)
	}
	if back.Options != ix.Options {
		t.Fatalf("options = %+v, want %+v", back.Options, ix.Options)
	}
	if !reflect.DeepEqual(back.Entries, ix.Entries) {
		t.Fatal("entries differ after round trip")
	}
}

// TestCompactIndexV4Reproducible writes one multi-tree index as v4
// repeatedly, and a copy of it loaded from v2, and requires the same
// bytes every time: nothing follows map iteration order.
func TestCompactIndexV4Reproducible(t *testing.T) {
	forest := fixtureForest(5, 12)
	opts := core.Options{MaxDist: core.D(4), MinOccur: 1}
	ix, err := Build(forest, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Load(bytes.NewReader(encodeV2(t, forest, opts)))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	first := filepath.Join(dir, "first.v4")
	if err := CompactIndexV4(first, ix); err != nil {
		t.Fatal(err)
	}
	for i, x := range []*Index{ix, ix, back, back} {
		again := filepath.Join(dir, "again.v4")
		if err := CompactIndexV4(again, x); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mustRead(t, again), mustRead(t, first)) {
			t.Fatalf("write %d differs from the first", i+1)
		}
	}
}

func TestLoadV1Fixture(t *testing.T) {
	// Author a version-1 file the way the old Save did — magicV1 header
	// followed by a gob of the string-keyed payload — and check the
	// current Load reads it into an index equivalent to a fresh Build.
	forest := fixtureForest(7, 12)
	opts := core.DefaultOptions()
	ix, err := Build(forest, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.WriteString(magicV1)
	if err := gob.NewEncoder(&buf).Encode(savedIndexV1{Options: ix.Options, Entries: ix.Entries}); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load of v1 fixture: %v", err)
	}
	if back.Options != ix.Options {
		t.Fatalf("options = %+v, want %+v", back.Options, ix.Options)
	}
	if !reflect.DeepEqual(back.Entries, ix.Entries) {
		t.Fatal("entries differ after v1 read")
	}
}

func TestLoadV2RejectsBadSymbolID(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(magicV2)
	payload := savedIndexV2{
		Options: core.DefaultOptions(),
		Labels:  []string{"a"},
		Trees: []savedTreeV2{{
			Name:  "t",
			Nodes: 2,
			Items: []savedItem{{A: 0, B: 7, D: core.D(0), N: 1}}, // B out of range
		}},
	}
	if err := gob.NewEncoder(&buf).Encode(payload); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("out-of-range symbol err = %v", err)
	}
}

// TestLoadRejectsOutOfRangeDist: an item distance outside [0, MaxDist]
// is corrupt. Packed into an IKey, 7.5 would carry its 4-bit distance
// field into the label bits (8 reading back as the pair at 0, 8.5 as
// 0.5), so CompactV4 must refuse it, in v2 and v1 files alike, and
// create no destination.
func TestLoadRejectsOutOfRangeDist(t *testing.T) {
	dir := t.TempDir()
	for _, maxD := range []core.Dist{core.D(3), core.MaxPackedDist} {
		for _, d := range []int{15, 16, 17, 31, -5, oracle.Wild} {
			var v2 bytes.Buffer
			tr := oracle.IndexTree{Name: "t", Nodes: 5, Items: oracle.Items{
				oracle.NewKey("a", "b", 0): 1,
				oracle.NewKey("a", "b", d): 1,
			}}
			if err := oracle.EncodeV2(&v2, int(maxD), 1, []oracle.IndexTree{tr}); err != nil {
				t.Fatal(err)
			}
			var v1 bytes.Buffer
			v1.WriteString(magicV1)
			entries := []TreeEntry{{Name: "t", Nodes: 5, Items: core.ItemSet{
				core.NewKey("a", "b", 0): 1, core.NewKey("a", "b", core.Dist(d)): 1,
			}}}
			if err := gob.NewEncoder(&v1).Encode(savedIndexV1{Options: core.Options{MaxDist: maxD, MinOccur: 1}, Entries: entries}); err != nil {
				t.Fatal(err)
			}
			for _, src := range []*bytes.Buffer{&v2, &v1} {
				dst := filepath.Join(dir, "out.v4")
				if err := CompactV4(dst, src); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("maxdist %s, item at %d halves: CompactV4 err = %v, want ErrCorrupt", maxD, d, err)
				}
				if _, err := os.Stat(dst); !os.IsNotExist(err) {
					t.Fatal("rejected source created the destination")
				}
			}
		}
	}
}

func TestConcurrentQueries(t *testing.T) {
	// Queries on a mapped index must be safe from multiple goroutines;
	// run with -race.
	forest := fixtureForest(6, 10)
	ix, err := Build(forest, nil, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "idx.v4")
	if err := CompactIndexV4(path, ix); err != nil {
		t.Fatal(err)
	}
	loaded, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	done := make(chan bool)
	for g := 0; g < 8; g++ {
		go func() {
			defer func() { done <- true }()
			for i := 0; i < 50; i++ {
				loaded.Frequent(2)
				loaded.Support("x", "y", core.DistWild)
			}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(bytes.NewReader(nil)); !errors.Is(err, ErrBadMagic) {
		t.Errorf("empty err = %v", err)
	}
	if _, err := Load(bytes.NewReader([]byte("NOTANINDEX00"))); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic err = %v", err)
	}
	// Valid magic, garbage payload.
	if _, err := Load(bytes.NewReader(append([]byte(magicV2), 0xde, 0xad))); !errors.Is(err, ErrCorrupt) {
		t.Errorf("corrupt err = %v", err)
	}
	// Truncated valid file.
	v2 := encodeV2(t, fixtureForest(5, 5), core.DefaultOptions())
	trunc := v2[:len(v2)/2]
	if _, err := Load(bytes.NewReader(trunc)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated err = %v", err)
	}
}
