package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"treemine/internal/core"
	"treemine/internal/newick"
	"treemine/internal/oracle"
	"treemine/internal/store"
	"treemine/internal/tree"
)

// forestTrees parses testdata/forest.nwk, the forest every daemon test
// serves.
func forestTrees(t *testing.T) []*tree.Tree {
	t.Helper()
	f, err := os.Open("testdata/forest.nwk")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	trees, err := newick.ParseAll(f)
	if err != nil {
		t.Fatal(err)
	}
	return trees
}

// writeIndex writes the testdata forest's v4 index, as cousindex build
// does.
func writeIndex(t *testing.T) string {
	t.Helper()
	ix, err := store.Build(forestTrees(t), nil, core.Options{MaxDist: core.D(3), MinOccur: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "forest.v4")
	if err := store.CompactIndexV4(path, ix); err != nil {
		t.Fatal(err)
	}
	return path
}

// waitAddr polls an -addr-file until the daemon writes its bound
// address.
func waitAddr(t *testing.T, path string) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if raw, err := os.ReadFile(path); err == nil && strings.HasSuffix(string(raw), "\n") {
			return strings.TrimSpace(string(raw))
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("daemon never wrote its address file")
	return ""
}

// smokeQueries is one query of each kind, as the CI smoke runs them.
var smokeQueries = []string{
	"/v1/support?l1=Gnetum&l2=Welwitschia&dist=0",
	"/v1/frequent?minsup=2",
	"/v1/tdist?t1=tree_1&t2=tree_2",
	"/v1/stats",
	"/healthz",
}

// writeConvertedV4 writes the testdata forest as a v2 index file, the
// format cousindex build wrote before v4, and converts it the one way
// an older file reaches the daemon: cousindex compact (store.CompactV4).
func writeConvertedV4(t *testing.T) string {
	t.Helper()
	trees := forestTrees(t)
	its := make([]oracle.IndexTree, len(trees))
	for i, s := range oracle.MineTrees(trees, 3, 1) {
		its[i] = oracle.IndexTree{Name: fmt.Sprintf("tree_%d", i+1), Nodes: trees[i].Size(), Items: s}
	}
	var v2 bytes.Buffer
	if err := oracle.EncodeV2(&v2, 3, 1, its); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "forest.idx.v4")
	if err := store.CompactV4(path, &v2); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestDaemonSmokeV4: a v4 file converted from an older index keeps its
// per-tree item sets, so the daemon maps it, names it in its banner,
// answers every smoke query (tdist included), and drains cleanly.
func TestDaemonSmokeV4(t *testing.T) {
	v4 := writeConvertedV4(t)
	addrFile := filepath.Join(t.TempDir(), "addr")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var out strings.Builder
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-index", v4, "-addr", "127.0.0.1:0", "-addr-file", addrFile, "-drain", "5s",
		}, &out)
	}()

	base := "http://" + waitAddr(t, addrFile)
	for _, q := range smokeQueries {
		resp, err := http.Get(base + q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d body %s", q, resp.StatusCode, body)
		}
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after cancel", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after cancel")
	}
	if !strings.Contains(out.String(), "serving "+v4+" (") {
		t.Errorf("stdout missing the banner naming the file:\n%s", out.String())
	}
}

func TestRunFlagValidation(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name string
		args []string
	}{
		{"missing_index", nil},
		{"nonexistent_file", []string{"-index", filepath.Join(t.TempDir(), "nope.idx")}},
		{"positional_args", []string{"-index", "x.idx", "stray"}},
		{"bad_flag", []string{"-frobnicate"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := run(ctx, tc.args, io.Discard); err == nil {
				t.Errorf("run(%q) succeeded", tc.args)
			}
		})
	}

	t.Run("garbage_index", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "garbage.idx")
		if err := os.WriteFile(path, []byte("not an index"), 0o644); err != nil {
			t.Fatal(err)
		}
		err := run(ctx, []string{"-index", path}, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "cousindex compact -i "+path) {
			t.Errorf("garbage index file: err %v, want a refusal naming cousindex compact", err)
		}
	})
}

// TestRunServesAndDrainsCleanly runs the daemon loop in-process: it
// must come up, answer one query of each kind, and return nil when its
// context is cancelled (the first-signal path).
func TestRunServesAndDrainsCleanly(t *testing.T) {
	idx := writeIndex(t)
	addrFile := filepath.Join(t.TempDir(), "addr")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var out strings.Builder
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-index", idx, "-addr", "127.0.0.1:0", "-addr-file", addrFile, "-drain", "5s",
		}, &out)
	}()

	base := "http://" + waitAddr(t, addrFile)
	for _, q := range smokeQueries {
		resp, err := http.Get(base + q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d body %s", q, resp.StatusCode, body)
		}
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after cancel", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after cancel")
	}
	if !strings.Contains(out.String(), "drained") {
		t.Errorf("stdout missing drain message:\n%s", out.String())
	}
}

// TestDaemonSmokeSIGTERM is the end-to-end smoke: build the real
// binary, start it on the testdata index, run one query of each kind,
// send SIGTERM, and require a drained exit 0 — exactly what the CI
// smoke step does.
func TestDaemonSmokeSIGTERM(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("SIGTERM semantics are POSIX-only")
	}
	if testing.Short() {
		t.Skip("builds a binary")
	}

	bin := filepath.Join(t.TempDir(), "cousinserve")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Env = os.Environ()
	if outb, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, outb)
	}

	idx := writeIndex(t)
	addrFile := filepath.Join(t.TempDir(), "addr")
	cmd := exec.Command(bin,
		"-index", idx, "-addr", "127.0.0.1:0", "-addr-file", addrFile, "-drain", "5s")
	var out strings.Builder
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	base := "http://" + waitAddr(t, addrFile)
	for _, q := range smokeQueries {
		resp, err := http.Get(base + q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d body %s", q, resp.StatusCode, body)
		}
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	werr := make(chan error, 1)
	go func() { werr <- cmd.Wait() }()
	select {
	case err := <-werr:
		if err != nil {
			t.Fatalf("daemon exited %v after SIGTERM (want 0):\n%s", err, out.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}
	if !strings.Contains(out.String(), "drained") {
		t.Errorf("daemon output missing drain message:\n%s", out.String())
	}
}
