package kernel

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"treemine/internal/core"
	"treemine/internal/tree"
	"treemine/internal/treegen"
)

// groupsFixture builds s groups of k random phylogenies over overlapping
// taxon windows.
func groupsFixture(seed int64, s, k int) [][]*tree.Tree {
	rng := rand.New(rand.NewSource(seed))
	all := treegen.Alphabet(40)
	groups := make([][]*tree.Tree, s)
	for g := 0; g < s; g++ {
		taxa := all[g*5 : g*5+20] // consecutive windows share 15 taxa
		for i := 0; i < k; i++ {
			groups[g] = append(groups[g], treegen.Yule(rng, taxa))
		}
	}
	return groups
}

func TestFindEmptyAndSingle(t *testing.T) {
	res, err := Find(nil, DefaultConfig())
	if err != nil || len(res.Choice) != 0 {
		t.Fatalf("Find(nil) = %+v, %v", res, err)
	}
	groups := groupsFixture(1, 1, 3)
	res, err = Find(groups, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Choice) != 1 || res.AvgDist != 0 || !res.Exact {
		t.Fatalf("single group result = %+v", res)
	}
}

func TestFindEmptyGroupError(t *testing.T) {
	groups := [][]*tree.Tree{{}, nil}
	if _, err := Find(groups, DefaultConfig()); !errors.Is(err, ErrEmptyGroup) {
		t.Fatalf("err = %v, want ErrEmptyGroup", err)
	}
}

func TestFindPicksIdenticalTrees(t *testing.T) {
	// Two groups; one tree of each group is identical across groups, the
	// others are scrambles. The kernel must select the identical pair
	// (distance 0).
	rng := rand.New(rand.NewSource(3))
	taxa := treegen.Alphabet(15)
	shared := treegen.Yule(rng, taxa)
	groups := [][]*tree.Tree{
		{treegen.Yule(rng, taxa), shared, treegen.Yule(rng, taxa)},
		{treegen.Yule(rng, taxa), treegen.Yule(rng, taxa), shared.Clone()},
	}
	res, err := Find(groups, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact {
		t.Fatal("small product should use exact search")
	}
	if res.AvgDist != 0 {
		t.Fatalf("AvgDist = %v, want 0", res.AvgDist)
	}
	if res.Choice[0] != 1 || res.Choice[1] != 2 {
		t.Fatalf("Choice = %v, want [1 2]", res.Choice)
	}
}

func TestExactMatchesBruteForce(t *testing.T) {
	groups := groupsFixture(7, 3, 4)
	cfg := DefaultConfig()
	res, err := Find(groups, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Brute force over all 64 combinations.
	items := make([][]core.ItemSet, len(groups))
	for gi, g := range groups {
		for _, tr := range g {
			items[gi] = append(items[gi], core.Mine(tr, cfg.Options))
		}
	}
	bestSum := -1.0
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			for c := 0; c < 4; c++ {
				sum := core.TDistItems(items[0][a], items[1][b], cfg.Variant) +
					core.TDistItems(items[0][a], items[2][c], cfg.Variant) +
					core.TDistItems(items[1][b], items[2][c], cfg.Variant)
				if bestSum < 0 || sum < bestSum {
					bestSum = sum
				}
			}
		}
	}
	want := bestSum / 3
	if diff := res.AvgDist - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("AvgDist = %v, brute force = %v", res.AvgDist, want)
	}
}

func TestDescentFallback(t *testing.T) {
	groups := groupsFixture(11, 3, 5)
	cfg := DefaultConfig()
	cfg.ExactBudget = 10 // force fallback (125 combos > 10)
	res, err := Find(groups, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Exact {
		t.Fatal("expected fallback search")
	}
	// Fallback must not beat exact (sanity) and must be within 2x.
	exact, err := Find(groups, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgDist < exact.AvgDist-1e-12 {
		t.Fatalf("fallback %v beat exact %v", res.AvgDist, exact.AvgDist)
	}
	if exact.AvgDist > 0 && res.AvgDist > 2*exact.AvgDist {
		t.Fatalf("fallback %v more than 2x exact %v", res.AvgDist, exact.AvgDist)
	}
}

func TestFindDeterministic(t *testing.T) {
	groups := groupsFixture(13, 2, 3)
	a, err := Find(groups, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Find(groups, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.AvgDist != b.AvgDist || a.Choice[0] != b.Choice[0] || a.Choice[1] != b.Choice[1] {
		t.Fatalf("Find not deterministic: %+v vs %+v", a, b)
	}
}

// findRef is the pre-engine Find: per-tree ItemSets, lazily memoized
// TDistItems per pair, and a descent that recomputes every candidate
// sum freshly. The profile-engine Find must
// produce identical choices, distances, and exactness flags.
func findRef(groups [][]*tree.Tree, cfg Config) *Result {
	s := len(groups)
	items := make([][]core.ItemSet, s)
	for gi, g := range groups {
		items[gi] = make([]core.ItemSet, len(g))
		for ti, t := range g {
			items[gi][ti] = core.Mine(t, cfg.Options)
		}
	}
	rawDist := func(gi, ti, gj, tj int) float64 {
		return core.TDistItems(items[gi][ti], items[gj][tj], cfg.Variant)
	}
	type pairKey struct{ gi, ti, gj, tj int }
	memo := map[pairKey]float64{}
	dist := func(gi, ti, gj, tj int) float64 {
		if gi > gj || (gi == gj && ti > tj) {
			gi, ti, gj, tj = gj, tj, gi, ti
		}
		k := pairKey{gi, ti, gj, tj}
		if d, ok := memo[k]; ok {
			return d
		}
		d := rawDist(gi, ti, gj, tj)
		memo[k] = d
		return d
	}
	product := 1
	exact := true
	for _, g := range groups {
		product *= len(g)
		if product > cfg.ExactBudget {
			exact = false
			break
		}
	}
	if exact {
		res, err := findExact(context.Background(), groups, dist)
		if err != nil {
			panic(err) // Background ctx: unreachable
		}
		res.Exact = true
		return res
	}
	// Pre-engine descent: candidate sums recomputed freshly each visit.
	rng := rand.New(rand.NewSource(cfg.Seed))
	pairs := float64(s*(s-1)) / 2
	score := func(choice []int) float64 {
		sum := 0.0
		for i := 0; i < s; i++ {
			for j := i + 1; j < s; j++ {
				sum += dist(i, choice[i], j, choice[j])
			}
		}
		return sum
	}
	restarts := cfg.Restarts
	if restarts < 1 {
		restarts = 1
	}
	var bestChoice []int
	bestSum := -1.0
	for r := 0; r < restarts; r++ {
		choice := make([]int, s)
		for g := range choice {
			choice[g] = rng.Intn(len(groups[g]))
		}
		for improved := true; improved; {
			improved = false
			for g := 0; g < s; g++ {
				curBest, curIdx := -1.0, choice[g]
				for ti := range groups[g] {
					sum := 0.0
					for gj := 0; gj < s; gj++ {
						if gj != g {
							sum += dist(g, ti, gj, choice[gj])
						}
					}
					if curBest < 0 || sum < curBest {
						curBest, curIdx = sum, ti
					}
				}
				if curIdx != choice[g] {
					choice[g] = curIdx
					improved = true
				}
			}
		}
		if total := score(choice); bestSum < 0 || total < bestSum {
			bestSum = total
			bestChoice = append([]int(nil), choice...)
		}
	}
	return &Result{Choice: bestChoice, AvgDist: bestSum / pairs, Exact: false}
}

// TestFindMatchesReference is the differential pin for the profile
// rewire: across fixed seeds, group shapes, variants, the packable
// boundary, and both search regimes (exact, and descent forced by a
// tiny budget), Find returns exactly the reference's choices, average
// distance, and exactness.
func TestFindMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed * 31))
		s := int(rng.Int63n(4)) + 2
		k := int(rng.Int63n(4)) + 1
		groups := groupsFixture(seed, s, k)
		for _, maxD := range []core.Dist{core.D(3), core.MaxPackedDist + 4} {
			for _, budget := range []int{1_000_000, 1} {
				cfg := DefaultConfig()
				cfg.Options.MaxDist = maxD
				cfg.ExactBudget = budget
				cfg.Variant = []core.Variant{core.VariantLabel, core.VariantDist,
					core.VariantOccur, core.VariantDistOccur}[seed%4]
				got, err := Find(groups, cfg)
				if err != nil {
					t.Fatal(err)
				}
				want := findRef(groups, cfg)
				if !reflect.DeepEqual(got.Choice, want.Choice) {
					t.Fatalf("seed=%d maxD=%v budget=%d: Choice %v != %v",
						seed, maxD, budget, got.Choice, want.Choice)
				}
				if got.AvgDist != want.AvgDist || got.Exact != want.Exact {
					t.Fatalf("seed=%d maxD=%v budget=%d: (%v, %v) != (%v, %v)",
						seed, maxD, budget, got.AvgDist, got.Exact, want.AvgDist, want.Exact)
				}
			}
		}
	}
}
