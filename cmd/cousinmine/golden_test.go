package main

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestGolden pins the CLI's exact output — every mode and format, with
// the streamed path running over the same fixtures as the materialized
// one. Regenerate with `go test ./cmd/cousinmine -run Golden -update`.
func TestGolden(t *testing.T) {
	input := "testdata/forest.nwk"
	cases := []struct {
		name string
		args []string
	}{
		{"single_table", nil},
		{"single_json", []string{"-format", "json"}},
		{"multi_table", []string{"-mode", "multi"}},
		{"multi_json", []string{"-mode", "multi", "-format", "json"}},
		{"multi_ignoredist", []string{"-mode", "multi", "-ignoredist"}},
		{"multi_maxdist3", []string{"-mode", "multi", "-maxdist", "3", "-minsup", "3"}},
		{"stream_table", []string{"-mode", "multi", "-stream"}},
		{"stream_json", []string{"-mode", "multi", "-stream", "-format", "json", "-shards", "3"}},
		{"stream_ignoredist", []string{"-mode", "multi", "-stream", "-ignoredist", "-shards", "2"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			if err := run(context.Background(), append(append([]string{}, tc.args...), input), strings.NewReader(""), &out); err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if out.String() != string(want) {
				t.Errorf("output differs from %s:\n--- got ---\n%s--- want ---\n%s", golden, out.String(), want)
			}
		})
	}
}

// TestStreamMatchesBatchOutput asserts the headline contract directly:
// -stream produces byte-identical output to the materialized run, for
// both formats.
func TestStreamMatchesBatchOutput(t *testing.T) {
	input := "testdata/forest.nwk"
	for _, format := range []string{"table", "json"} {
		var batch, stream strings.Builder
		if err := run(context.Background(), []string{"-mode", "multi", "-format", format, input}, strings.NewReader(""), &batch); err != nil {
			t.Fatal(err)
		}
		if err := run(context.Background(), []string{"-mode", "multi", "-format", format, "-stream", "-shards", "4", input}, strings.NewReader(""), &stream); err != nil {
			t.Fatal(err)
		}
		if batch.String() != stream.String() {
			t.Errorf("format=%s: stream output differs:\n--- batch ---\n%s--- stream ---\n%s",
				format, batch.String(), stream.String())
		}
	}
}

// TestStreamCheckpointFlag exercises -checkpoint end to end: the first
// run writes a shard file; a second run over the same input resumes
// from it (skipping every already-mined tree) and emits identical
// output.
func TestStreamCheckpointFlag(t *testing.T) {
	input := "testdata/forest.nwk"
	ckpt := filepath.Join(t.TempDir(), "shard.ckpt")
	args := []string{"-mode", "multi", "-stream", "-checkpoint", ckpt, "-checkpoint-every", "2", input}

	var first strings.Builder
	if err := run(context.Background(), args, strings.NewReader(""), &first); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("checkpoint file not written: %v", err)
	}
	if _, err := os.Stat(ckpt + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp checkpoint left behind: %v", err)
	}

	var second strings.Builder
	if err := run(context.Background(), args, strings.NewReader(""), &second); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Errorf("resumed run differs:\n--- first ---\n%s--- second ---\n%s", first.String(), second.String())
	}

	// A corrupt checkpoint must fail loudly, not silently restart.
	if err := os.WriteFile(ckpt, []byte("TREEMINEIDX3garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), args, strings.NewReader(""), &second); err == nil {
		t.Error("corrupt checkpoint accepted")
	}
}

// TestStreamRequiresMultiMode pins the flag validation.
func TestStreamRequiresMultiMode(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-stream"}, strings.NewReader("(a,b);"), &out); err == nil {
		t.Error("-stream without -mode multi accepted")
	}
}

// TestStreamEmptyInput: the streamed path rejects empty input like the
// materialized one.
func TestStreamEmptyInput(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-mode", "multi", "-stream"}, strings.NewReader(""), &out); err == nil {
		t.Error("empty input accepted")
	}
}
