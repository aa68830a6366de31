package core

import (
	"testing"
)

func TestDistString(t *testing.T) {
	cases := []struct {
		d    Dist
		want string
	}{
		{D(0), "0"}, {D(1), "0.5"}, {D(2), "1"}, {D(3), "1.5"},
		{D(4), "2"}, {D(5), "2.5"}, {DistWild, "*"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("Dist(%d).String() = %q, want %q", c.d, got, c.want)
		}
	}
}

func TestDistFromFloat(t *testing.T) {
	for f, want := range map[float64]Dist{0: 0, 0.5: 1, 1: 2, 1.5: 3, 2: 4} {
		got, err := DistFromFloat(f)
		if err != nil || got != want {
			t.Errorf("DistFromFloat(%v) = %v, %v; want %v", f, got, err, want)
		}
	}
	for _, bad := range []float64{-1, 0.25, 1.7} {
		if _, err := DistFromFloat(bad); err == nil {
			t.Errorf("DistFromFloat(%v): expected error", bad)
		}
	}
}

func TestParseDist(t *testing.T) {
	cases := map[string]Dist{"0": 0, "0.5": 1, " 1.5 ": 3, "*": DistWild, " * ": DistWild}
	for s, want := range cases {
		got, err := ParseDist(s)
		if err != nil || got != want {
			t.Errorf("ParseDist(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, bad := range []string{"", "x", "-0.5", "0.3"} {
		if _, err := ParseDist(bad); err == nil {
			t.Errorf("ParseDist(%q): expected error", bad)
		}
	}
}

func TestDistHalfAndWild(t *testing.T) {
	if D(0).Half() || !D(1).Half() || D(2).Half() || !D(3).Half() {
		t.Error("Half wrong")
	}
	if !DistWild.IsWild() || D(0).IsWild() {
		t.Error("IsWild wrong")
	}
	if DistWild.Half() {
		t.Error("wildcard is not half")
	}
}

func TestLevels(t *testing.T) {
	// Paper Eq. 1–3: distance 0 → (1,1); 0.5 → (1,2); 1 → (2,2);
	// 1.5 → (2,3); 2 → (3,3).
	cases := []struct{ d, i, j int }{
		{0, 1, 1}, {1, 1, 2}, {2, 2, 2}, {3, 2, 3}, {4, 3, 3}, {5, 3, 4},
	}
	for _, c := range cases {
		i, j := D(c.d).Levels()
		if i != c.i || j != c.j {
			t.Errorf("Dist(%s).Levels() = (%d,%d), want (%d,%d)", D(c.d), i, j, c.i, c.j)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Levels on wildcard should panic")
		}
	}()
	DistWild.Levels()
}

func TestDistOf(t *testing.T) {
	cases := []struct {
		hu, hv int
		want   Dist
		ok     bool
	}{
		{1, 1, D(0), true}, // siblings
		{1, 2, D(1), true}, // aunt–niece
		{2, 1, D(1), true}, // symmetric
		{2, 2, D(2), true}, // first cousins
		{2, 3, D(3), true}, // first cousins once removed
		{3, 3, D(4), true}, // second cousins
		{3, 4, D(5), true}, // second cousins once removed
		{1, 3, 0, false},   // twice removed: undefined
		{4, 1, 0, false},
	}
	for _, c := range cases {
		got, ok := DistOf(c.hu, c.hv)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("DistOf(%d,%d) = (%v,%v), want (%v,%v)", c.hu, c.hv, got, ok, c.want, c.ok)
		}
	}
}

func TestLevelsRoundTrip(t *testing.T) {
	// Levels and DistOf are inverse: DistOf(Levels(d)) == d.
	for d := Dist(0); d <= 10; d++ {
		i, j := d.Levels()
		got, ok := DistOf(i, j)
		if !ok || got != d {
			t.Errorf("DistOf(Levels(%s)) = (%v,%v)", d, got, ok)
		}
	}
}

func TestValidDistances(t *testing.T) {
	got := ValidDistances(D(3))
	if len(got) != 4 || got[0] != 0 || got[3] != 3 {
		t.Fatalf("ValidDistances(1.5) = %v", got)
	}
	if got := ValidDistances(DistWild); got != nil {
		t.Fatalf("ValidDistances(wild) = %v, want nil", got)
	}
}

func TestDefaultOptions(t *testing.T) {
	// Table 2 of the paper.
	o := DefaultOptions()
	if o.MaxDist != D(3) || o.MinOccur != 1 {
		t.Fatalf("DefaultOptions = %+v, want maxdist 1.5, minoccur 1", o)
	}
	fo := DefaultForestOptions()
	if fo.MinSup != 2 || fo.MaxDist != D(3) || fo.MinOccur != 1 {
		t.Fatalf("DefaultForestOptions = %+v", fo)
	}
}
