package main

import (
	"context"
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
	"treemine/internal/store"
)

// writeIndex mines testdata/forest.nwk and writes a v2 index file the
// daemon under test serves.
func writeIndex(t *testing.T) string {
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
	ix, err := store.Build(trees, nil, core.Options{MaxDist: core.D(3), MinOccur: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "forest.idx")
	out, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Save(out); err != nil {
		t.Fatal(err)
	}
	if err := out.Close(); err != nil {
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

// writeIndexV4 compacts the testdata index into a v4 zero-copy file.
func writeIndexV4(t *testing.T) string {
	t.Helper()
	idx := writeIndex(t)
	f, err := os.Open(idx)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	path := filepath.Join(t.TempDir(), "forest.v4")
	if err := store.CompactV4(path, f); err != nil {
		t.Fatal(err)
	}
	return path
}

// smokeQueriesV4 mirrors smokeQueries for a mapped v4 backend: a file
// compacted from an index keeps its per-tree item sets, so it answers
// every query, tdist included.
var smokeQueriesV4 = []struct {
	path string
	want int
}{
	{"/v1/support?l1=Gnetum&l2=Welwitschia&dist=0", http.StatusOK},
	{"/v1/frequent?minsup=2", http.StatusOK},
	{"/v1/tdist?t1=tree_1&t2=tree_2", http.StatusOK},
	{"/v1/stats", http.StatusOK},
	{"/healthz", http.StatusOK},
}

// TestDaemonSmokeV4: the daemon auto-detects a compacted v4 file by
// magic, memory-maps it, reports the mapped backend, answers the smoke
// queries, and drains cleanly — the CI v4 smoke in-process.
func TestDaemonSmokeV4(t *testing.T) {
	v4 := writeIndexV4(t)
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
	for _, q := range smokeQueriesV4 {
		resp, err := http.Get(base + q.path)
		if err != nil {
			t.Fatalf("%s: %v", q.path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != q.want {
			t.Errorf("%s: status %d (want %d) body %s", q.path, resp.StatusCode, q.want, body)
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
	if !strings.Contains(out.String(), "mapped backend") {
		t.Errorf("stdout missing mapped-backend banner:\n%s", out.String())
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
		if err := run(ctx, []string{"-index", path}, io.Discard); err == nil {
			t.Error("garbage index file accepted")
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
