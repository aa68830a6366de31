package serve

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"treemine/internal/core"
	"treemine/internal/faults"
	"treemine/internal/store"
)

// The chaos suite: every injected failure must surface as a clean 5xx
// JSON error on the one request it hits, and must never corrupt the
// result cache or the loaded backend. `make chaos` runs these under
// -race alongside the mining-runtime fault tests.

const chaosQuery = "/v1/support?l1=Gnetum&l2=Welwitschia&dist=0"

// chaosServer builds a fresh server and registers a fault reset, so an
// armed failpoint can never leak into a later test.
func chaosServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	t.Cleanup(faults.Reset)
	return newTestServer(t, openBackend(t, fixtureIndex(t)), cfg)
}

// TestChaosFaultInjectedHandlerError: an error-mode handler failpoint
// turns exactly one request into a 500 whose body names the injection;
// the next identical request answers normally, and the failed request
// left nothing in the cache.
func TestChaosFaultInjectedHandlerError(t *testing.T) {
	s, ts := chaosServer(t, Config{CacheEntries: 64})

	faults.Enable(faults.ServeHandler, faults.Spec{Mode: faults.ModeError, Count: 1})
	st, body := get(t, ts, chaosQuery)
	if st != http.StatusInternalServerError {
		t.Fatalf("injected handler error: status %d (body %s), want 500", st, body)
	}
	if !strings.Contains(body, "injected failure") {
		t.Errorf("500 body does not name the injection: %s", body)
	}
	if n := s.CacheStats().Entries; n != 0 {
		t.Errorf("failed request cached %d entries", n)
	}

	// Failpoint exhausted: the same query now answers from the library.
	st, body = get(t, ts, chaosQuery)
	if st != http.StatusOK || !strings.Contains(body, `"support":4`) {
		t.Errorf("post-fault request: %d %s", st, body)
	}
	// And the recovery response is what got cached, not the failure.
	st2, body2 := get(t, ts, chaosQuery)
	if st2 != http.StatusOK || body2 != body {
		t.Errorf("cache poisoned by fault: %d %s vs %s", st2, body2, body)
	}
}

// TestChaosFaultInjectedHandlerPanic: a panicking handler is contained
// by the per-request guard — clean 500, server stays up, cache stays
// coherent.
func TestChaosFaultInjectedHandlerPanic(t *testing.T) {
	s, ts := chaosServer(t, Config{CacheEntries: 64})

	// Prime the cache before the crash.
	stPre, pre := get(t, ts, chaosQuery)
	if stPre != http.StatusOK {
		t.Fatalf("prime: %d", stPre)
	}

	faults.Enable(faults.ServeHandler, faults.Spec{Mode: faults.ModePanic, Count: 1})
	st, body := get(t, ts, chaosQuery)
	if st != http.StatusInternalServerError {
		t.Fatalf("injected panic: status %d (body %s), want 500", st, body)
	}
	if !strings.Contains(body, "panic") {
		t.Errorf("500 body does not report the contained panic: %s", body)
	}

	// The server survived and the pre-crash cache entry is intact.
	st, body = get(t, ts, chaosQuery)
	if st != http.StatusOK || body != pre {
		t.Errorf("after contained panic: %d %s, want cached %s", st, body, pre)
	}
	if s.CacheStats().Hits == 0 {
		t.Error("cache lost its pre-panic entry")
	}
}

// TestChaosFaultInjectedSlowDeadline: a stalled handler is bounded by
// the per-request deadline and answers 503, not a hung connection.
func TestChaosFaultInjectedSlowDeadline(t *testing.T) {
	_, ts := chaosServer(t, Config{CacheEntries: 64, RequestTimeout: 50 * time.Millisecond})

	faults.Enable(faults.ServeSlow, faults.Spec{Mode: faults.ModeError, Count: 1})
	start := time.Now()
	st, body := get(t, ts, chaosQuery)
	if st != http.StatusServiceUnavailable {
		t.Fatalf("stalled handler: status %d (body %s), want 503", st, body)
	}
	if !strings.Contains(body, "deadline") {
		t.Errorf("503 body does not report the deadline: %s", body)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Errorf("deadline did not bound the stall: %v", el)
	}

	if st, _ := get(t, ts, chaosQuery); st != http.StatusOK {
		t.Errorf("request after stall: %d", st)
	}
}

// TestChaosFaultInjectedCacheBypass: with the cache failpoint armed on
// every hit, responses bypass the cache entirely and stay byte-correct;
// disarming restores caching.
func TestChaosFaultInjectedCacheBypass(t *testing.T) {
	s, ts := chaosServer(t, Config{CacheEntries: 64})

	faults.Enable(faults.ServeCache, faults.Spec{Mode: faults.ModeError})
	_, first := get(t, ts, chaosQuery)
	_, second := get(t, ts, chaosQuery)
	if first != second || !strings.Contains(first, `"support":4`) {
		t.Errorf("bypassed responses diverge or are wrong:\n%s%s", first, second)
	}
	if st := s.CacheStats(); st.Entries != 0 || st.Hits != 0 {
		t.Errorf("cache used while bypassed: %+v", st)
	}

	faults.Reset()
	_, third := get(t, ts, chaosQuery)
	_, fourth := get(t, ts, chaosQuery)
	if third != first || fourth != first {
		t.Error("cached responses differ from bypassed ones")
	}
	if st := s.CacheStats(); st.Entries == 0 || st.Hits == 0 {
		t.Errorf("cache still idle after disarm: %+v", st)
	}
}

// TestChaosFaultInjectedLoadError: an I/O failure during backend load
// fails Open with the injected sentinel — at the first read or deep
// into the file — and never yields a half-loaded backend; the same
// bytes load cleanly once disarmed. OpenPath, which reads nothing
// incrementally, fails at its one injection point before the map.
func TestChaosFaultInjectedLoadError(t *testing.T) {
	t.Cleanup(faults.Reset)
	// A forest big enough that the v4 file spans many reads, so the
	// mid-load injection lands inside the read, not past EOF.
	trees, names := diffForest(t, 17, 64)
	ix, err := store.Build(trees, names, core.Options{MaxDist: core.D(4), MinOccur: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "idx.v4")
	if err := store.CompactIndexV4(path, ix); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	faults.Enable(faults.ServeLoad, faults.Spec{Mode: faults.ModeError})
	if b, err := Open(bytes.NewReader(raw)); err == nil || !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("load fault at read 0: backend %v, err %v", b, err)
	}
	if b, err := OpenPath(path); err == nil || !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("load fault at OpenPath: backend %v, err %v", b, err)
	}

	// Past the first read: the failure lands mid-file.
	faults.Enable(faults.ServeLoad, faults.Spec{Mode: faults.ModeError, After: 1})
	if _, err := Open(bytes.NewReader(raw)); err == nil || !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("mid-load fault not surfaced: err %v", err)
	}

	faults.Reset()
	b, err := Open(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("clean load after disarm: %v", err)
	}
	if b.Trees() != ix.NumTrees() {
		t.Errorf("reloaded backend: %d trees, want %d", b.Trees(), ix.NumTrees())
	}
}
