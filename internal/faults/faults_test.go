package faults

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestDisarmedHitIsNil(t *testing.T) {
	Reset()
	if err := Hit("nope"); err != nil {
		t.Fatalf("disarmed Hit = %v, want nil", err)
	}
}

func TestErrorModeFiresAndMatchesSentinel(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	Enable("p", Spec{Mode: ModeError})
	err := Hit("p")
	if err == nil {
		t.Fatal("armed Hit = nil, want injected error")
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("errors.Is(%v, ErrInjected) = false", err)
	}
	var ie *InjectedError
	if !errors.As(err, &ie) || ie.Name != "p" {
		t.Fatalf("errors.As failed or wrong name: %v", err)
	}
}

func TestAfterAndCount(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	Enable("p", Spec{Mode: ModeError, After: 2, Count: 1})
	var fires []bool
	for i := 0; i < 5; i++ {
		fires = append(fires, Hit("p") != nil)
	}
	want := []bool{false, false, true, false, false}
	for i := range want {
		if fires[i] != want[i] {
			t.Fatalf("hit %d fired=%v, want %v (all %v)", i, fires[i], want[i], fires)
		}
	}
}

func TestPanicMode(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	Enable("p", Spec{Mode: ModePanic})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic-mode Hit did not panic")
		}
		if err, ok := r.(error); !ok || !errors.Is(err, ErrInjected) {
			t.Fatalf("panic value %v does not match ErrInjected", r)
		}
	}()
	Hit("p")
}

func TestOtherNamesUnaffected(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	Enable("a", Spec{Mode: ModeError})
	if err := Hit("b"); err != nil {
		t.Fatalf("unarmed name fired: %v", err)
	}
}

func TestApplyGrammar(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	if err := Apply("x=error@2, y=panic#3 ,z=error"); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	mu.Lock()
	px, py := *points["x"], *points["y"]
	mu.Unlock()
	if px.spec != (Spec{Mode: ModeError, After: 2}) {
		t.Fatalf("x spec = %+v", px.spec)
	}
	if py.spec != (Spec{Mode: ModePanic, Count: 3}) {
		t.Fatalf("y spec = %+v", py.spec)
	}
	for _, bad := range []string{"noeq", "x=", "x=warn", "x=error@-1", "x=error#0", "x=error%"} {
		if err := Apply(bad); err == nil {
			t.Fatalf("Apply(%q) accepted", bad)
		}
	}
}

func TestApplyGrammarModesAndStateFile(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	if err := Apply("k=kill,s=stall#1,f=error#2%/tmp/with@odd#chars"); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	mu.Lock()
	pk, ps, pf := *points["k"], *points["s"], *points["f"]
	mu.Unlock()
	if pk.spec.Mode != ModeKill {
		t.Fatalf("k spec = %+v", pk.spec)
	}
	if ps.spec != (Spec{Mode: ModeStall, Count: 1}) {
		t.Fatalf("s spec = %+v", ps.spec)
	}
	// Everything after the first % is the path, so @ and # inside it
	// never parse as markers.
	if pf.spec != (Spec{Mode: ModeError, Count: 2, StateFile: "/tmp/with@odd#chars"}) {
		t.Fatalf("f spec = %+v", pf.spec)
	}
}

// TestStateFileCountersSurviveRestart simulates the coordinator drill:
// the same spec re-armed in a fresh registry (a re-executed worker)
// continues the on-disk counters, so "fail twice then succeed" spans
// process restarts.
func TestStateFileCountersSurviveRestart(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	state := filepath.Join(t.TempDir(), "fp.state")
	spec := Spec{Mode: ModeError, Count: 2, StateFile: state}

	var fires []bool
	for restart := 0; restart < 4; restart++ {
		Reset() // a fresh process parses the same TREEMINE_FAULTS spec
		Enable("p", spec)
		fires = append(fires, Hit("p") != nil)
	}
	want := []bool{true, true, false, false}
	for i := range want {
		if fires[i] != want[i] {
			t.Fatalf("restart %d fired=%v, want %v (all %v)", i, fires[i], want[i], fires)
		}
	}
	if data, err := os.ReadFile(state); err != nil || string(data) != "4 2\n" {
		t.Fatalf("state file = %q, %v; want \"4 2\\n\"", data, err)
	}
}
