package serve

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"sync"
	"testing"
	"time"

	"treemine/internal/faults"
)

// Concurrency correctness: many goroutines hammering one read-only
// loaded index through every endpoint, LRU races under eviction
// pressure, in-flight requests completing during a graceful drain, and
// no goroutine left behind after shutdown. The whole file runs under
// `make race`.

// stripCacheCounters drops the live cache-counter object from a stats
// body so byte comparisons see only the deterministic backend fields:
// the counters legitimately advance between requests.
var statsCachePattern = regexp.MustCompile(`,"cache":\{[^}]*\}`)

func stripCacheCounters(body string) string {
	return statsCachePattern.ReplaceAllString(body, "")
}

// waitNoExtraGoroutines retries until the goroutine count returns to
// the baseline (the PR 5 leak-check pattern).
func waitNoExtraGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d > baseline %d\n%s", n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServeRaceHammer: 8 goroutines × 250 mixed queries (valid,
// invalid, unknown labels/trees) against one server with a small cache,
// so cache hits, misses, and evictions all race. Every response must be
// a well-formed status from the endpoint's contract, and repeated
// queries must stay byte-identical across goroutines.
func TestServeRaceHammer(t *testing.T) {
	s, ts := newTestServer(t, openBackend(t, fixtureIndex(t)), Config{CacheEntries: 16})

	queries := []struct {
		path string
		want int
	}{
		{"/v1/support?l1=Gnetum&l2=Welwitschia&dist=0", 200},
		{"/v1/support?l1=Gnetum&l2=Welwitschia", 200},
		{"/v1/support?l1=Ephedra&l2=Ginkgoales&dist=1", 200},
		{"/v1/support?l1=NoSuchTaxon&l2=Gnetum", 200},
		{"/v1/support?l1=&l2=x", 400},
		{"/v1/frequent?minsup=2", 200},
		{"/v1/frequent?minsup=1&maxdist=0.5&limit=3", 200},
		{"/v1/frequent?minsup=0", 400},
		{"/v1/tdist?t1=tree_1&t2=tree_2", 200},
		{"/v1/tdist?t1=tree_1&t2=tree_3&variant=occ", 200},
		{"/v1/tdist?t1=tree_1&t2=missing", 404},
		{"/v1/stats", 200},
	}

	// Reference bodies, fetched single-threaded before the hammer.
	ref := make([]string, len(queries))
	for i, q := range queries {
		st, body := get(t, ts, q.path)
		if st != q.want {
			t.Fatalf("%s: status %d, want %d", q.path, st, q.want)
		}
		ref[i] = stripCacheCounters(body)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 250; i++ {
				qi := (g + i) % len(queries)
				q := queries[qi]
				resp, err := ts.Client().Get(ts.URL + q.path)
				if err != nil {
					t.Errorf("%s: %v", q.path, err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Errorf("%s: read: %v", q.path, err)
					return
				}
				if resp.StatusCode != q.want {
					t.Errorf("%s: status %d, want %d", q.path, resp.StatusCode, q.want)
					return
				}
				if stripCacheCounters(string(body)) != ref[qi] {
					t.Errorf("%s: body diverged under concurrency:\n%s", q.path, body)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := s.CacheStats()
	if st.Hits == 0 {
		t.Error("hammer never hit the cache")
	}
}

// TestServeRaceCacheEvict drives far more distinct cacheable queries
// than the cache holds, from many goroutines, so inserts and evictions
// race on every shard; the bound on resident entries must hold
// throughout.
func TestServeRaceCacheEvict(t *testing.T) {
	s, ts := newTestServer(t, openBackend(t, fixtureIndex(t)), Config{CacheEntries: 8})
	labels := []string{"Gnetum", "Welwitschia", "Ephedra", "Ginkgoales", "Pinaceae", "Angiosperms", "Cycadales", "Conifers2"}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				l1 := labels[(g+i)%len(labels)]
				l2 := labels[(g+2*i+1)%len(labels)]
				d := i % 4
				path := fmt.Sprintf("/v1/support?l1=%s&l2=%s&dist=%d", l1, l2, d)
				resp, err := ts.Client().Get(ts.URL + path)
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(g)
	}
	wg.Wait()
	bound := ((8 + cacheShardCount - 1) / cacheShardCount) * cacheShardCount
	if n := s.CacheStats().Entries; n > bound {
		t.Errorf("cache holds %d entries after eviction races, bound %d", n, bound)
	}
}

// TestServeRaceDrainInFlight proves the graceful-drain contract on a
// real http.Server: requests stalled in a handler (the slow failpoint)
// are completed — answered with a clean 503 once released — while
// Shutdown waits, and no goroutine survives the drain. The order is
// driven by events, not timers: the request deadline is off, so the
// stalled handlers wait on a base context the test owns, and the test
// cancels it only after it has seen all three in flight and Shutdown
// has signalled, through RegisterOnShutdown, that the drain began.
// (Deadline-bounded stalls are TestChaosFaultInjectedSlowDeadline's.)
func TestServeRaceDrainInFlight(t *testing.T) {
	defer faults.Reset()
	base := runtime.NumGoroutine()

	s := New(openBackend(t, fixtureIndex(t)), Config{CacheEntries: 64, RequestTimeout: -1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	baseCtx, release := context.WithCancel(context.Background())
	defer release()
	srv := &http.Server{Handler: s.Handler(), BaseContext: func(net.Listener) context.Context { return baseCtx }}
	draining := make(chan struct{})
	srv.RegisterOnShutdown(func() { close(draining) })
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	url := "http://" + ln.Addr().String()
	client := &http.Client{}

	// A few normal requests first: the server works, connections warm.
	for _, p := range []string{"/v1/stats", "/v1/support?l1=Gnetum&l2=Welwitschia"} {
		resp, err := client.Get(url + p)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s: %d", p, resp.StatusCode)
		}
	}

	// Stall the next 3 requests in-handler until the test releases them.
	const stalled = 3
	faults.Enable(faults.ServeSlow, faults.Spec{Mode: faults.ModeError, Count: stalled})
	type result struct {
		status int
		body   string
		err    error
	}
	results := make(chan result, stalled)
	for i := 0; i < stalled; i++ {
		go func() {
			resp, err := client.Get(url + "/v1/frequent?minsup=2")
			if err != nil {
				results <- result{err: err}
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			results <- result{status: resp.StatusCode, body: string(body)}
		}()
	}

	// Nothing releases a stalled handler yet, so waiting for all three
	// cannot race anything.
	for s.InFlight() < stalled {
		time.Sleep(time.Millisecond)
	}
	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- srv.Shutdown(context.Background()) }()
	<-draining
	release()
	if err := <-shutdownErr; err != nil {
		t.Fatalf("graceful drain failed: %v", err)
	}
	if err := <-serveErr; err != http.ErrServerClosed {
		t.Errorf("Serve returned %v", err)
	}

	// Every stalled request completed during the drain, with a clean
	// 503 — not a dropped connection.
	for i := 0; i < stalled; i++ {
		r := <-results
		if r.err != nil {
			t.Errorf("in-flight request dropped during drain: %v", r.err)
			continue
		}
		if r.status != http.StatusServiceUnavailable {
			t.Errorf("stalled request: status %d (body %s), want 503", r.status, r.body)
		}
	}
	if n := s.InFlight(); n != 0 {
		t.Errorf("%d requests still marked in flight after drain", n)
	}
	client.CloseIdleConnections()
	waitNoExtraGoroutines(t, base)
}

// TestServeRaceShutdownLeak: a full start → hammer → shutdown cycle
// leaves the goroutine count at its baseline.
func TestServeRaceShutdownLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(openBackend(t, fixtureIndex(t)), Config{CacheEntries: 32})
	ts := httptest.NewServer(s.Handler())
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				resp, err := ts.Client().Get(ts.URL + "/v1/frequent?minsup=1")
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	ts.Client().CloseIdleConnections()
	ts.Close()
	waitNoExtraGoroutines(t, base)
}
