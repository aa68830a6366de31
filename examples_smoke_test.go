package treemine_test

// Smoke test: every example program must build and run to completion.
// Each `go run` compiles the example, so the whole suite is skipped in
// -short mode.

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"
)

func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("examples need `go run`; skipped in -short mode")
	}
	examples := []struct {
		dir  string
		want string // substring the output must contain
	}{
		{"quickstart", "sibling support: 3/3"},
		{"seedplants", "Gnetum, Welwitschia"},
		{"consensus", "equally parsimonious trees"},
		{"kernel", "kernel selection"},
		{"freetree", "frequent pairs across both free trees"},
		{"clustering", "supertree over both windows"},
		{"branchlengths", "UpDown ranking"},
	}
	for _, ex := range examples {
		ex := ex
		t.Run(ex.dir, func(t *testing.T) {
			t.Parallel()
			cmd := exec.Command("go", "run", "./examples/"+ex.dir)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("example %s failed: %v\n%s%s", ex.dir, err, out, stderr.Bytes())
			}
			if !strings.Contains(string(out), ex.want) {
				t.Fatalf("example %s output missing %q:\n%s", ex.dir, ex.want, out)
			}
			// An example with a golden file must reproduce it byte for byte.
			golden := "examples/" + ex.dir + "/testdata/stdout.golden"
			if want, err := os.ReadFile(golden); err == nil && !bytes.Equal(out, want) {
				t.Fatalf("example %s stdout differs from %s:\n%s", ex.dir, golden, out)
			} else if err != nil && !os.IsNotExist(err) {
				t.Fatal(err)
			}
		})
	}
}
