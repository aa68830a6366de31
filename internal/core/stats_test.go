package core

import (
	"encoding/json"
	"reflect"
	"testing"
)

func TestDistHistogram(t *testing.T) {
	s := ItemSet{
		NewKey("a", "b", D(0)):        2,
		NewKey("c", "d", D(0)):        1,
		NewKey("a", "c", D(3)):        4,
		{A: "x", B: "y", D: DistWild}: 9, // wildcard excluded
	}
	got := s.DistHistogram()
	want := map[Dist]int{D(0): 3, D(3): 4}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DistHistogram = %v, want %v", got, want)
	}
}

func TestTopK(t *testing.T) {
	s := ItemSet{
		NewKey("a", "b", D(0)): 1,
		NewKey("c", "d", D(0)): 5,
		NewKey("e", "f", D(2)): 3,
	}
	top := s.TopK(2)
	if len(top) != 2 || top[0].Occur != 5 || top[1].Occur != 3 {
		t.Fatalf("TopK = %v", top)
	}
	all := s.TopK(99)
	if len(all) != 3 {
		t.Fatalf("TopK(99) = %v", all)
	}
	if len(s.TopK(0)) != 0 {
		t.Fatal("TopK(0) not empty")
	}
}

func TestDistJSONRoundTrip(t *testing.T) {
	for _, d := range []Dist{D(0), D(1), D(3), DistWild} {
		b, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		var back Dist
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if back != d {
			t.Fatalf("round trip %v → %s → %v", d, b, back)
		}
	}
	// Items marshal with readable distances.
	it := Item{Key: NewKey("a", "c", D(1)), Occur: 2}
	b, err := json.Marshal(it)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `{"Key":{"A":"a","B":"c","D":"0.5"},"Occur":2}` {
		t.Fatalf("Item JSON = %s", b)
	}
}

func TestDistJSONErrors(t *testing.T) {
	var d Dist
	if err := json.Unmarshal([]byte(`42`), &d); err == nil {
		t.Error("numeric distance accepted")
	}
	if err := json.Unmarshal([]byte(`"zz"`), &d); err == nil {
		t.Error("bad string accepted")
	}
}
