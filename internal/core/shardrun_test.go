package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"treemine/internal/tree"
)

// runBacked rebuilds sh as a run-backed shard through RestoreShard of
// its canonical snapshot, and fails the test if the restore did not
// keep the run.
func runBacked(t *testing.T, sh *SupportShard) *SupportShard {
	t.Helper()
	o, n, l, it := sh.Snapshot()
	rs, err := RestoreShard(o, n, l, it)
	if err != nil {
		t.Fatal(err)
	}
	if rs.run == nil {
		t.Fatal("canonical restore did not keep the run")
	}
	return rs
}

// checkSameShard holds got to want on every read: canonical snapshot,
// Len and Finalize.
func checkSameShard(t *testing.T, what string, got, want *SupportShard) {
	t.Helper()
	if !reflect.DeepEqual(snapOf(got), snapOf(want)) {
		t.Fatalf("%s: snapshot differs from the map-backed shard", what)
	}
	if got.Len() != want.Len() {
		t.Fatalf("%s: Len() = %d, want %d", what, got.Len(), want.Len())
	}
	if g, w := got.Finalize(2), want.Finalize(2); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: Finalize differs from the map-backed shard", what)
	}
}

// labelled renders drained items as label triples, so drains coded
// against different local tables compare.
func labelled(labels []string, items []ShardItem) []string {
	out := make([]string, len(items))
	for i, it := range items {
		out[i] = fmt.Sprintf("%s|%s|%d|%d", labels[it.A], labels[it.B], it.D, it.N)
	}
	return out
}

// TestRunShardDifferential: over random forests in both distance modes,
// a run-backed shard — restored from a canonical snapshot, folded from
// one in batches, or merged into an empty master — reads exactly like
// the map-backed shard it came from, and stays identical to it after a
// follow-on AddTree, FoldFrom, Merge or DrainSorted.
func TestRunShardDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	for round := 0; round < 12; round++ {
		forest := randForest(rng, 10+rng.Intn(20), 30, 4+rng.Intn(20))
		extra := randForest(rng, 4, 30, 30)
		opts := DefaultForestOptions()
		opts.IgnoreDist = round%3 == 2
		ref := buildShard(forest, opts)

		restored := runBacked(t, ref)
		checkSameShard(t, "restored", restored, ref)

		o, n, l, items := ref.Snapshot()
		folded := NewSupportShard(o)
		fold := folded.FoldFrom(l)
		for i := 0; i < len(items); i += 7 {
			if err := fold(0, items[i:min(i+7, len(items))]); err != nil {
				t.Fatal(err)
			}
		}
		if err := fold(n, nil); err != nil {
			t.Fatal(err)
		}
		if folded.run == nil {
			t.Fatal("a canonical fold into an empty shard did not keep the run")
		}
		checkSameShard(t, "folded", folded, ref)

		merged := NewSupportShard(opts)
		if err := merged.Merge(restored); err != nil {
			t.Fatal(err)
		}
		if merged.run == nil {
			t.Fatal("merging a run-backed shard into an empty one did not keep the run")
		}
		checkSameShard(t, "merged", merged, ref)

		follow := []struct {
			name string
			do   func(*SupportShard) error
		}{
			{"AddTree", func(sh *SupportShard) error { sh.AddTree(extra[0]); return nil }},
			{"FoldFrom", func(sh *SupportShard) error {
				_, labels, items, _ := buildShard(extra, opts).snapshotLocal()
				return sh.FoldFrom(labels)(len(extra), items)
			}},
			{"Merge", func(sh *SupportShard) error { return sh.Merge(buildShard(extra[1:], opts)) }},
			{"Merge run-backed", func(sh *SupportShard) error { return sh.Merge(runBacked(t, buildShard(extra, opts))) }},
		}
		for _, f := range follow {
			got, want := runBacked(t, ref), buildShard(forest, opts)
			if err := f.do(got); err != nil {
				t.Fatal(err)
			}
			if err := f.do(want); err != nil {
				t.Fatal(err)
			}
			checkSameShard(t, "after "+f.name, got, want)
		}

		got, want := runBacked(t, ref), buildShard(forest, opts)
		gd, err := got.DrainSorted()
		if err != nil {
			t.Fatal(err)
		}
		wd, err := want.DrainSorted()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(labelled(got.LocalLabels(), gd), labelled(want.LocalLabels(), wd)) {
			t.Fatal("a run-backed shard drains differently from the map-backed one")
		}
		for _, tr := range extra {
			got.AddTree(tr)
			want.AddTree(tr)
		}
		checkSameShard(t, "after DrainSorted and AddTree", got, want)
	}
}

// TestRunShardFallsBack: batches that cannot continue a run — out of
// order, duplicated, a count too wide to pack, A > B — move it into the
// map and fold exactly as a map-backed shard would, and a label table
// that is not strictly sorted is never adopted.
func TestRunShardFallsBack(t *testing.T) {
	opts := DefaultForestOptions()
	labels := []string{"a", "b", "c"}
	cases := []struct {
		name    string
		batches [][]ShardItem
	}{
		{"out of order", [][]ShardItem{
			{{A: 0, B: 2, D: D(0), N: 1}},
			{{A: 0, B: 1, D: D(0), N: 2}},
		}},
		{"duplicate across batches", [][]ShardItem{
			{{A: 0, B: 1, D: D(0), N: 1}, {A: 1, B: 2, D: D(2), N: 1}},
			{{A: 1, B: 2, D: D(2), N: 4}},
		}},
		{"wide count", [][]ShardItem{
			{{A: 0, B: 1, D: D(0), N: 1}},
			{{A: 1, B: 1, D: D(0), N: 1 << 61}, {A: 2, B: 2, D: D(0), N: 1}},
		}},
		{"A after B", [][]ShardItem{
			{{A: 0, B: 0, D: D(0), N: 1}},
			{{A: 2, B: 1, D: D(0), N: 3}},
		}},
	}
	for _, tc := range cases {
		got := NewSupportShard(opts)
		fold := got.FoldFrom(labels)
		want := NewSupportShard(opts)
		for _, l := range []string{"c", "a", "b"} { // an unsorted table: never a run
			want.syms.Intern(l)
		}
		wfold := want.FoldFrom(labels)
		for i, b := range tc.batches {
			if err := fold(1, b); err != nil {
				t.Fatal(err)
			}
			if i == 0 && got.run == nil {
				t.Fatalf("%s: first batch was not adopted", tc.name)
			}
			if err := wfold(1, b); err != nil {
				t.Fatal(err)
			}
		}
		if got.run != nil {
			t.Fatalf("%s: run kept after a batch that cannot continue it", tc.name)
		}
		if want.run != nil {
			t.Fatalf("%s: non-empty shard adopted a run", tc.name)
		}
		checkSameShard(t, tc.name, got, want)
	}

	unsorted := NewSupportShard(opts)
	if err := unsorted.FoldFrom([]string{"b", "a"})(1, []ShardItem{{A: 0, B: 1, D: D(0), N: 1}}); err != nil {
		t.Fatal(err)
	}
	if unsorted.run != nil {
		t.Fatal("a fold over an unsorted label table was adopted")
	}
	rs, err := RestoreShard(opts, 1, []string{"a", "b"}, []ShardItem{{A: 1, B: 1, D: D(0), N: 1}, {A: 0, B: 1, D: D(0), N: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if rs.run != nil || rs.Len() != 2 {
		t.Fatalf("unsorted restore: run kept %v, Len() = %d, want the map with 2 entries", rs.run != nil, rs.Len())
	}
}

// TestPackedRunRoundTrip: every field survives the packing at the edges
// of its width, for label tables from one label to 2^20.
func TestPackedRunRoundTrip(t *testing.T) {
	for _, labels := range []int{1, 2, 3, 255, 256, 18870, 1 << 20} {
		r := newPackedRun(labels)
		top := uint32(labels - 1)
		maxN := int64(1)<<r.nBits - 1
		want := []ShardItem{
			{A: 0, B: 0, D: DistWild, N: 0},
			{A: 0, B: 0, D: D(0), N: 1},
			{A: 0, B: top, D: MaxPackedDist, N: maxN},
			{A: top, B: top, D: DistWild, N: 7},
			{A: top, B: top, D: MaxPackedDist, N: maxN},
		}
		if labels == 1 {
			want = []ShardItem{want[0], want[1], want[4]} // top is 0 with one label
		}
		if !r.extend(want) {
			t.Fatalf("%d labels: in-range items refused", labels)
		}
		if got := r.items(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%d labels: unpacked %v, want %v", labels, got, want)
		}
		if r.push(ShardItem{A: top, B: top, D: MaxPackedDist, N: 1}) {
			t.Fatalf("%d labels: a duplicate key continued the run", labels)
		}
		if newPackedRun(labels).push(ShardItem{A: 0, B: top, D: D(0), N: maxN + 1}) {
			t.Fatalf("%d labels: a count past the packed width was accepted", labels)
		}
	}
}

// TestDrainSortedLabelOrderIncremental: across many drains, each
// interning new labels that sort before, between and after the old
// ones, every drained run is in label order and the drains sum to the
// undrained shard.
func TestDrainSortedLabelOrderIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	opts := DefaultForestOptions()
	var forest []*tree.Tree
	sh := NewSupportShard(opts)
	sum := map[string]int64{}
	for drain := 0; drain < 30; drain++ {
		batch := randForest(rng, 2, 20, 5+drain*3)
		forest = append(forest, batch...)
		for _, tr := range batch {
			sh.AddTree(tr)
		}
		run, err := sh.DrainSorted()
		if err != nil {
			t.Fatal(err)
		}
		labels := sh.LocalLabels()
		for i, it := range run {
			if labels[it.A] > labels[it.B] {
				t.Fatalf("drain %d: record %d has label(A) > label(B)", drain, i)
			}
			if i > 0 {
				p := run[i-1]
				pa, pb, a, b := labels[p.A], labels[p.B], labels[it.A], labels[it.B]
				if pa > a || (pa == a && (pb > b || (pb == b && p.D >= it.D))) {
					t.Fatalf("drain %d: run not in label order at %d", drain, i)
				}
			}
			sum[fmt.Sprintf("%s|%s|%d", labels[it.A], labels[it.B], it.D)] += it.N
		}
	}
	whole := map[string]int64{}
	_, _, labels, items := buildShard(forest, opts).Snapshot()
	for _, it := range items {
		whole[fmt.Sprintf("%s|%s|%d", labels[it.A], labels[it.B], it.D)] += it.N
	}
	if !reflect.DeepEqual(sum, whole) {
		t.Fatal("summed label-ordered drains differ from an undrained shard")
	}
}
