package store

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math/rand"
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

func TestSaveLoadRoundTrip(t *testing.T) {
	forest := fixtureForest(4, 15)
	opts := core.DefaultOptions()
	ix, err := Build(forest, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
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

// TestSaveIsReproducible saves one multi-tree index repeatedly, and a
// loaded copy of it, and requires the same bytes every time: items are
// written in sorted order, never in map iteration order.
func TestSaveIsReproducible(t *testing.T) {
	ix, err := Build(fixtureForest(5, 12), nil, core.Options{MaxDist: core.D(4), MinOccur: 1})
	if err != nil {
		t.Fatal(err)
	}
	var first bytes.Buffer
	if err := ix.Save(&first); err != nil {
		t.Fatal(err)
	}
	back, err := Load(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range []*Index{ix, ix, ix, back, back} {
		var again bytes.Buffer
		if err := x.Save(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), first.Bytes()) {
			t.Fatalf("save %d differs from the first save", i+1)
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

func TestSaveSharesLabelsAcrossTrees(t *testing.T) {
	// The v2 payload stores each label once for the whole file; with many
	// trees over one small taxon set it must be smaller than a v1 payload
	// of the same index.
	forest := fixtureForest(8, 40)
	ix, err := Build(forest, nil, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var v2 bytes.Buffer
	if err := ix.Save(&v2); err != nil {
		t.Fatal(err)
	}
	var v1 bytes.Buffer
	v1.WriteString(magicV1)
	if err := gob.NewEncoder(&v1).Encode(savedIndexV1{Options: ix.Options, Entries: ix.Entries}); err != nil {
		t.Fatal(err)
	}
	if v2.Len() >= v1.Len() {
		t.Fatalf("v2 file (%d bytes) not smaller than v1 (%d bytes)", v2.Len(), v1.Len())
	}
}

func TestConcurrentQueries(t *testing.T) {
	// Queries on a loaded index, which answers through its in-memory v4
	// image, must be safe from multiple goroutines; run with -race.
	forest := fixtureForest(6, 10)
	ix, err := Build(forest, nil, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := OpenMappedReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
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
	forest := fixtureForest(5, 5)
	ix, err := Build(forest, nil, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := Load(bytes.NewReader(trunc)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated err = %v", err)
	}
}
