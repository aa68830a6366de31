package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"treemine/internal/tree"
)

// snapshotOf collects the canonical snapshot into one comparable value.
type snap struct {
	opts   ForestOptions
	trees  int
	labels []string
	items  []ShardItem
}

func snapOf(sh *SupportShard) snap {
	o, n, l, it := sh.Snapshot()
	return snap{opts: o, trees: n, labels: l, items: it}
}

// TestSnapshotCanonical: the snapshot is a pure function of the logical
// counts — shards that interned the same labels in different orders
// (mined tree orders reversed) snapshot identically, in both key modes.
func TestSnapshotCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	forest := randForest(rng, 16, 40, 6)
	rev := make([]*tree.Tree, len(forest))
	for i, tr := range forest {
		rev[len(forest)-1-i] = tr
	}
	for _, maxD := range []Dist{D(3), MaxPackedDist + 3} {
		opts := ForestOptions{Options: Options{MaxDist: maxD, MinOccur: 1}, MinSup: 2}
		a := buildShard(forest, opts)
		b := buildShard(rev, opts)
		sa, sb := snapOf(a), snapOf(b)
		if !reflect.DeepEqual(sa, sb) {
			t.Fatalf("maxD=%v: snapshots differ across mining orders", maxD)
		}
		if !sort.StringsAreSorted(sa.labels) {
			t.Fatalf("maxD=%v: snapshot labels not sorted", maxD)
		}
		for i := 1; i < len(sa.items); i++ {
			x, y := sa.items[i-1], sa.items[i]
			if x.A > y.A || (x.A == y.A && (x.B > y.B || (x.B == y.B && x.D >= y.D))) {
				t.Fatalf("maxD=%v: snapshot items unsorted or duplicated at %d", maxD, i)
			}
		}
	}
}

// TestMergeAssociationBitIdentity is the distributed-mining invariant:
// however a forest is partitioned and however the partial shards are
// merged — left fold, right fold, balanced, shuffled partition order —
// the canonical snapshot equals the single-shard mine's exactly. Run
// under -race this doubles as the merge-path race leg.
func TestMergeAssociationBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	forest := randForest(rng, 24, 40, 6)
	opts := DefaultForestOptions()
	want := snapOf(buildShard(forest, opts))

	parts := func(order []int) []*SupportShard {
		bounds := []int{0, 7, 13, 18, 24}
		out := make([]*SupportShard, 0, 4)
		for _, i := range order {
			out = append(out, buildShard(forest[bounds[i]:bounds[i+1]], opts))
		}
		return out
	}

	merges := []struct {
		name string
		run  func() (*SupportShard, error)
	}{
		{"left fold", func() (*SupportShard, error) {
			shs := parts([]int{0, 1, 2, 3})
			m := NewSupportShard(opts)
			for _, sh := range shs {
				if err := m.Merge(sh); err != nil {
					return nil, err
				}
			}
			return m, nil
		}},
		{"shuffled order", func() (*SupportShard, error) {
			shs := parts([]int{2, 0, 3, 1})
			m := NewSupportShard(opts)
			for _, sh := range shs {
				if err := m.Merge(sh); err != nil {
					return nil, err
				}
			}
			return m, nil
		}},
		{"balanced tree", func() (*SupportShard, error) {
			shs := parts([]int{0, 1, 2, 3})
			if err := shs[0].Merge(shs[1]); err != nil {
				return nil, err
			}
			if err := shs[2].Merge(shs[3]); err != nil {
				return nil, err
			}
			if err := shs[0].Merge(shs[2]); err != nil {
				return nil, err
			}
			return shs[0], nil
		}},
		{"concurrent into master", func() (*SupportShard, error) {
			shs := parts([]int{0, 1, 2, 3})
			m := NewSupportShard(opts)
			errs := make([]error, len(shs))
			var wg sync.WaitGroup
			for i, sh := range shs {
				wg.Add(1)
				go func(i int, sh *SupportShard) {
					defer wg.Done()
					errs[i] = m.Merge(sh)
				}(i, sh)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					return nil, err
				}
			}
			return m, nil
		}},
	}
	for _, mc := range merges {
		t.Run(mc.name, func(t *testing.T) {
			m, err := mc.run()
			if err != nil {
				t.Fatal(err)
			}
			if got := snapOf(m); !reflect.DeepEqual(got, want) {
				t.Fatal("merged snapshot differs from the single-shard mine")
			}
		})
	}
}

// TestFoldTranslated: entries coded against a foreign label table fold
// through FoldFrom into a shard with a different (even disjoint-prefix)
// intern order, landing on the right labels; out-of-range symbol ids
// are rejected.
func TestFoldTranslated(t *testing.T) {
	opts := DefaultForestOptions()
	sh := NewSupportShard(opts)
	// Foreign table deliberately ordered unlike anything sh interned.
	labels := []string{"zebra", "apple", "mango"}
	items := []ShardItem{
		{A: 1, B: 0, D: D(2), N: 3}, // (apple, zebra)@1.0 ×3
		{A: 2, B: 2, D: D(0), N: 1}, // (mango, mango)@0 ×1
	}
	if err := sh.FoldFrom(labels)(5, items); err != nil {
		t.Fatal(err)
	}
	if sh.Trees() != 5 {
		t.Fatalf("Trees() = %d, want 5", sh.Trees())
	}
	_, _, slabels, sitems := sh.Snapshot()
	find := func(a, b string, d Dist) int64 {
		for _, it := range sitems {
			if slabels[it.A] == a && slabels[it.B] == b && it.D == d {
				return it.N
			}
		}
		return 0
	}
	if got := find("apple", "zebra", D(2)); got != 3 {
		t.Fatalf("(apple, zebra)@2 = %d, want 3", got)
	}
	if got := find("mango", "mango", D(0)); got != 1 {
		t.Fatalf("(mango, mango)@0 = %d, want 1", got)
	}

	if err := sh.FoldFrom(labels)(0, []ShardItem{{A: 7, B: 0, D: D(0), N: 1}}); err == nil {
		t.Fatal("accepted an out-of-range symbol id")
	} else if !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("error %q does not name the defect", err)
	}
}

// TestFoldFromTranslatesOnce: a fold built by FoldFrom interns the
// foreign table on its first batch and reuses that translation — later
// batches land on the labels as they were then, even if the caller's
// slice changed since — range check included.
func TestFoldFromTranslatesOnce(t *testing.T) {
	sh := NewSupportShard(DefaultForestOptions())
	labels := []string{"zebra", "apple", "mango"}
	fold := sh.FoldFrom(labels)
	if err := fold(2, []ShardItem{{A: 1, B: 0, D: D(2), N: 3}}); err != nil {
		t.Fatal(err)
	}
	labels[2] = "renamed"
	if err := fold(1, []ShardItem{{A: 2, B: 2, D: D(0), N: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := fold(0, []ShardItem{{A: 3, B: 0, D: D(0), N: 1}}); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("out-of-range symbol id: err = %v", err)
	}
	want := []FrequentPair{
		{Key: NewKey("apple", "zebra", D(2)), Support: 3},
		{Key: NewKey("mango", "mango", D(0)), Support: 1},
	}
	if got := sh.Finalize(1); !reflect.DeepEqual(got, want) {
		t.Fatalf("fold = %v, want %v", got, want)
	}
	if got := sh.LocalLabels(); len(got) != 3 {
		t.Fatalf("shard interned %v, want the three labels of the first batch", got)
	}
	if sh.Trees() != 3 {
		t.Fatalf("Trees() = %d, want 3", sh.Trees())
	}
}

// TestDrainSorted: draining empties the counts but keeps the symbol
// table and tree tally; ids stay stable across drains, so summing the
// drained runs per key reconstructs an undrained shard exactly.
func TestDrainSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	forest := randForest(rng, 12, 40, 6)
	opts := DefaultForestOptions()

	whole := buildShard(forest, opts)
	wantItems, err := buildShard(forest, opts).DrainSorted()
	if err != nil {
		t.Fatal(err)
	}

	// Drain in two installments and merge the runs by key.
	sh := buildShard(forest[:6], opts)
	run1, err := sh.DrainSorted()
	if err != nil {
		t.Fatal(err)
	}
	if sh.Len() != 0 {
		t.Fatalf("Len() = %d after drain, want 0", sh.Len())
	}
	if sh.Trees() != 6 {
		t.Fatalf("Trees() = %d after drain, want 6", sh.Trees())
	}
	labelsBefore := sh.LocalLabels()
	for _, tr := range forest[6:] {
		sh.AddTree(tr)
	}
	run2, err := sh.DrainSorted()
	if err != nil {
		t.Fatal(err)
	}
	labelsAfter := sh.LocalLabels()
	if !reflect.DeepEqual(labelsBefore, labelsAfter[:len(labelsBefore)]) {
		t.Fatal("drain renumbered existing symbols")
	}

	sum := map[string]int64{}
	key := func(labels []string, it ShardItem) string {
		return fmt.Sprintf("%s|%s|%d", labels[it.A], labels[it.B], it.D)
	}
	for _, it := range run1 {
		sum[key(labelsAfter, it)] += it.N
	}
	for _, it := range run2 {
		sum[key(labelsAfter, it)] += it.N
	}
	wholeSum := map[string]int64{}
	wholeLabels := whole.LocalLabels()
	for _, it := range wantItems {
		wholeSum[key(wholeLabels, it)] += it.N
	}
	if !reflect.DeepEqual(sum, wholeSum) {
		t.Fatal("summed drained runs differ from an undrained shard")
	}

	// Runs come out in label order: (label(A), label(B), D) strictly
	// ascending, with label(A) ≤ label(B) in every record.
	for _, run := range [][]ShardItem{run1, run2} {
		for i, y := range run {
			if labelsAfter[y.A] > labelsAfter[y.B] {
				t.Fatalf("drained record %d has label(A) > label(B)", i)
			}
			if i == 0 {
				continue
			}
			x := run[i-1]
			xa, xb, ya, yb := labelsAfter[x.A], labelsAfter[x.B], labelsAfter[y.A], labelsAfter[y.B]
			if xa > ya || (xa == ya && (xb > yb || (xb == yb && x.D >= y.D))) {
				t.Fatalf("drained run not in label order at %d", i)
			}
		}
	}

	generic := NewSupportShard(ForestOptions{
		Options: Options{MaxDist: MaxPackedDist + 3, MinOccur: 1}, MinSup: 2,
	})
	if _, err := generic.DrainSorted(); err == nil {
		t.Fatal("generic shard accepted a drain")
	}
}

// TestLocalLabelsGenericNil pins the generic-mode contract.
func TestLocalLabelsGenericNil(t *testing.T) {
	generic := NewSupportShard(ForestOptions{
		Options: Options{MaxDist: MaxPackedDist + 3, MinOccur: 1}, MinSup: 2,
	})
	if generic.LocalLabels() != nil {
		t.Fatal("generic shard returned a label table")
	}
}

// TestStreamAfterRoundHook: the hook runs between rounds with the
// master quiescent, and its error aborts the stream naming the round.
func TestStreamAfterRoundHook(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	forest := randForest(rng, 10, 30, 5)
	opts := DefaultForestOptions()

	calls := 0
	_, err := MineForestStreamShard(NewSliceIterator(forest), opts, StreamConfig{
		BatchSize: 2,
		Workers:   1,
		AfterRound: func(sh *SupportShard) error {
			calls++
			if sh.Trees()%2 != 0 {
				t.Errorf("hook saw %d trees, want a round multiple", sh.Trees())
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 5 {
		t.Fatalf("hook ran %d times, want 5", calls)
	}

	boom := errors.New("boom")
	_, err = MineForestStreamShard(NewSliceIterator(forest), opts, StreamConfig{
		BatchSize:  2,
		Workers:    1,
		AfterRound: func(*SupportShard) error { return boom },
	})
	if !errors.Is(err, boom) {
		t.Fatalf("stream error = %v, want the hook's", err)
	}
	if err == nil || !strings.Contains(err.Error(), "after round") {
		t.Fatalf("error %q does not name the hook", err)
	}
}
