package core

import (
	"cmp"
	"encoding/binary"
	"math/rand"
	"slices"
	"strconv"
	"testing"
)

// sortShardItemsOracle is the comparator sort SortShardItems replaced,
// kept as its differential oracle.
func sortShardItemsOracle(items []ShardItem) {
	slices.SortFunc(items, compareShardItems)
}

// checkSortShardItems sorts a copy of items with the radix kernel and
// with the oracle and requires the same key sequence and, since the
// kernel is not stable, the same multiset of items.
func checkSortShardItems(t *testing.T, items []ShardItem) {
	t.Helper()
	got, want := slices.Clone(items), slices.Clone(items)
	SortShardItems(got)
	sortShardItemsOracle(want)
	for i := range want {
		if compareShardItems(got[i], want[i]) != 0 {
			t.Fatalf("n=%d: item %d key = %+v, oracle %+v", len(items), i, got[i], want[i])
		}
	}
	withCount := func(x, y ShardItem) int {
		if c := compareShardItems(x, y); c != 0 {
			return c
		}
		return cmp.Compare(x.N, y.N)
	}
	slices.SortFunc(got, withCount)
	slices.SortFunc(want, withCount)
	if !slices.Equal(got, want) {
		t.Fatalf("n=%d: sorted items are not a permutation of the input", len(items))
	}
}

// randShardItems draws n items with A, B below symLimit and D from
// dists.
func randShardItems(rng *rand.Rand, n int, symLimit uint32, dists []Dist) []ShardItem {
	items := make([]ShardItem, n)
	for i := range items {
		items[i] = ShardItem{
			A: uint32(rng.Int63n(int64(symLimit))),
			B: uint32(rng.Int63n(int64(symLimit))),
			D: dists[rng.Intn(len(dists))],
			N: 1 + rng.Int63n(1000),
		}
	}
	return items
}

// TestSortShardItemsDifferential: the radix kernel orders every shape
// the store path produces — and the degenerate ones — exactly as the
// comparator sort does.
func TestSortShardItemsDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	packed := []Dist{DistWild, D(0), D(1), D(2), D(3), D(14)}
	var generic []Dist
	for h := 0; h <= 40; h++ { // maxdist 20
		generic = append(generic, D(h))
	}
	type tcase struct {
		name  string
		items []ShardItem
	}
	var cases []tcase
	for _, n := range []int{0, 1, 2, radixCutoff - 1, radixCutoff, radixCutoff + 1, 2*radixCutoff + 3, 1000, 1 << 16} {
		cases = append(cases, tcase{"random/" + strconv.Itoa(n), randShardItems(rng, n, 20000, packed)})
	}
	equal := make([]ShardItem, 5000)
	for i := range equal {
		equal[i] = ShardItem{A: 7, B: 9, D: D(2), N: int64(i)}
	}
	rev := randShardItems(rng, 30000, 1<<12, packed)
	sortShardItemsOracle(rev)
	slices.Reverse(rev)
	sorted := randShardItems(rng, 30000, 1<<12, packed)
	sortShardItemsOracle(sorted)
	top := randShardItems(rng, 3000, 3, packed)
	for i := range top {
		top[i].A += MaxSymbols - 3
		top[i].B += MaxSymbols - 3
	}
	cases = append(cases,
		tcase{"allEqual", equal},
		tcase{"duplicates", randShardItems(rng, 20000, 4, []Dist{D(0), D(1)})},
		tcase{"reverseSorted", rev},
		tcase{"alreadySorted", sorted},
		tcase{"wildOnly", randShardItems(rng, 10000, 500, []Dist{DistWild})},
		tcase{"maxSymbols", randShardItems(rng, 50000, MaxSymbols, packed)},
		tcase{"nearMaxSymbols", top},
		tcase{"genericDist", randShardItems(rng, 40000, 300, generic)},
		tcase{"genericWild", randShardItems(rng, 40000, 300, append([]Dist{DistWild}, generic...))},
	)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkSortShardItems(t, tc.items) })
	}
}

// FuzzSortShardItems: any item sequence sorts like the comparator
// oracle. Each 11-byte chunk of input is one item: A and B (4 bytes
// each), D (2 bytes, signed) and N (1 byte).
func FuzzSortShardItems(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 11*40))
	seed := make([]byte, 0, 11*100)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		seed = binary.LittleEndian.AppendUint32(seed, uint32(rng.Intn(50)))
		seed = binary.LittleEndian.AppendUint32(seed, uint32(rng.Intn(50)))
		seed = binary.LittleEndian.AppendUint16(seed, uint16(rng.Intn(16)-1))
		seed = append(seed, byte(i))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		items := make([]ShardItem, 0, len(data)/11)
		for ; len(data) >= 11; data = data[11:] {
			items = append(items, ShardItem{
				A: binary.LittleEndian.Uint32(data) % MaxSymbols,
				B: binary.LittleEndian.Uint32(data[4:]) % MaxSymbols,
				D: Dist(int16(binary.LittleEndian.Uint16(data[8:]))),
				N: int64(data[10]),
			})
		}
		checkSortShardItems(t, items)
	})
}

// TestSortShardItemsAllocs: the kernel sorts in place — the allocation
// count is a small constant, the same for 1,000 items as for 100,000,
// so nothing scales with the input.
func TestSortShardItemsAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	counts := map[int]float64{}
	for _, n := range []int{1000, 100000} {
		src := randShardItems(rng, n, 20000, []Dist{D(0), D(1), D(2), D(3)})
		items := make([]ShardItem, n)
		counts[n] = testing.AllocsPerRun(5, func() {
			copy(items, src)
			SortShardItems(items)
		})
	}
	t.Logf("allocations per sort: %v at 1,000 items, %v at 100,000", counts[1000], counts[100000])
	if counts[1000] > 2 || counts[100000] != counts[1000] {
		t.Fatalf("allocations per sort: %v at 1,000 items, %v at 100,000; want the same count, at most 2", counts[1000], counts[100000])
	}
}
