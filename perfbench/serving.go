package main

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"treemine/internal/serve"
	"treemine/internal/store"
)

// serveReport is what one serving process tells the orchestrator.
type serveReport struct {
	StartsS  []float64   `json:"starts_s"` // each re-open to first answer
	Support  legReport   `json:"support"`
	Frequent legReport   `json:"frequent"`
	RSSKiB   int64       `json:"rss_kib"`
	Samples  []sample    `json:"samples"`
	Trace    *serveTrace `json:"trace,omitempty"`
}

// legReport summarizes one closed-loop leg over all its requests.
type legReport struct {
	Requests int     `json:"requests"`
	Failed   int     `json:"failed"`
	QPS      float64 `json:"qps"`
	P50Ms    float64 `json:"p50_ms"`
	P99Ms    float64 `json:"p99_ms"`
}

// serveTrace holds one serving process's per-layer figures.
type serveTrace struct {
	OpenS             float64 `json:"open_s"` // median store.OpenMapped
	SupportBackendUs  float64 `json:"support_backend_us"`
	FrequentBackendMs float64 `json:"frequent_backend_ms"`
	CacheHits         int64   `json:"cache_hits"`
	CacheMisses       int64   `json:"cache_misses"`
	CacheEvictions    int64   `json:"cache_evictions"`
	CacheBypass       int64   `json:"cache_bypass"`
}

// serveTimes splits the serve phase's time budget.
type serveTimes struct {
	Reopen, Warmup, Support, Frequent time.Duration
}

// daemon is one running query server: the opened backend behind an
// HTTP listener on the loopback interface.
type daemon struct {
	b    *serve.Backend
	srv  *serve.Server
	hs   *http.Server
	base string
	done chan error
}

// startDaemon opens the index and serves it, as cousinserve does with
// its default cache and deadline.
func startDaemon(path string) (*daemon, error) {
	b, err := serve.OpenPath(path)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Close()
		return nil, err
	}
	d := &daemon{b: b, srv: serve.New(b, serve.Config{}), done: make(chan error, 1)}
	d.hs = &http.Server{Handler: d.srv.Handler()}
	d.base = "http://" + ln.Addr().String()
	go func() { d.done <- d.hs.Serve(ln) }()
	return d, nil
}

// stop closes the listener and every connection, waits for the serve
// loop to return, then unmaps the index.
func (d *daemon) stop() error {
	err := d.hs.Close()
	if serr := <-d.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := d.b.Close(); err == nil {
		err = cerr
	}
	return err
}

// oneConnClient is an HTTP client that holds at most one connection.
func oneConnClient() (*http.Client, *http.Transport) {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &http.Client{Transport: tr}, tr
}

// get fetches url and returns the status and the whole body.
func get(c *http.Client, url string) (int, []byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// coldStart times one daemon start: from serve.OpenPath to the first
// answered request, on a fresh connection.
func coldStart(index, firstPath string) (time.Duration, error) {
	c, tr := oneConnClient()
	defer tr.CloseIdleConnections()
	start := time.Now()
	d, err := startDaemon(index)
	if err != nil {
		return 0, err
	}
	status, _, err := get(c, d.base+firstPath)
	took := time.Since(start)
	tr.CloseIdleConnections()
	if serr := d.stop(); err == nil {
		err = serr
	}
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("first request: status %d", status)
	}
	return took, err
}

// runLeg sends paths[from], paths[from+1], … (cyclically) one at a
// time on c for dur, and keeps every keepEvery-th 200 body. It returns
// the leg summary and the next probe index.
func runLeg(c *http.Client, base string, paths []string, from int, dur time.Duration, kind string, keepEvery int, samples *[]sample) (legReport, int) {
	var leg legReport
	lat := make([]float64, 0, 1<<15)
	i := from
	start := time.Now()
	for deadline := start.Add(dur); time.Now().Before(deadline); i++ {
		p := i % len(paths)
		t := time.Now()
		status, body, err := get(c, base+paths[p])
		lat = append(lat, time.Since(t).Seconds()*1e3)
		switch {
		case err != nil || status != http.StatusOK:
			leg.Failed++
		case samples != nil && (i-from)%keepEvery == 0:
			*samples = append(*samples, sample{Kind: kind, Probe: p, Body: body})
		}
	}
	leg.Requests = len(lat)
	leg.QPS = float64(len(lat)) / time.Since(start).Seconds()
	leg.P50Ms, leg.P99Ms = quantile(lat, 0.50), quantile(lat, 0.99)
	return leg, i
}

// serveIndex runs one serving process's share of the serve phase
// against the v4 file at index: the cold-start loop, then one daemon
// driven by a single closed-loop connection through a support leg and a
// frequent leg.
func serveIndex(index string, ps *probeSet, times serveTimes, traced bool) (*serveReport, error) {
	supportPaths := make([]string, len(ps.Support))
	for i, p := range ps.Support {
		supportPaths[i] = p.path()
	}
	frequentPaths := make([]string, len(ps.Frequent))
	for i, q := range ps.Frequent {
		frequentPaths[i] = q.path()
	}
	rep := &serveReport{}
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}

	begin := time.Now()
	for len(rep.StartsS) < minReopens || (time.Since(begin) < times.Reopen && len(rep.StartsS) < maxReopens) {
		took, err := coldStart(index, supportPaths[len(rep.StartsS)%len(supportPaths)])
		if err != nil {
			return nil, fmt.Errorf("cold start: %w", err)
		}
		rep.StartsS = append(rep.StartsS, took.Seconds())
	}

	d, err := startDaemon(index)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	c, tr := oneConnClient()
	defer tr.CloseIdleConnections()

	_, next := runLeg(c, d.base, supportPaths, 0, times.Warmup, "support", 1, nil)
	before, bypass := d.srv.CacheStats(), cacheBypass()
	supportFrom := next
	rep.Support, next = runLeg(c, d.base, supportPaths, next, times.Support, "support", supportKeepEvery, &rep.Samples)
	after := d.srv.CacheStats()
	var st serveTrace
	st.CacheHits, st.CacheMisses = after.Hits-before.Hits, after.Misses-before.Misses
	st.CacheEvictions, st.CacheBypass = after.Evictions-before.Evictions, cacheBypass()-bypass
	supportUsed := next - supportFrom

	// Listings walk other parts of the mapped index than lookups do, so
	// they get their own warm-up: the timed leg should not pay the first
	// touch of those pages.
	_, frequentFrom := runLeg(c, d.base, frequentPaths, 0, times.Warmup/2, "frequent", 1, nil)
	rep.Frequent, next = runLeg(c, d.base, frequentPaths, frequentFrom, times.Frequent, "frequent", frequentKeepEvery, &rep.Samples)
	frequentUsed := next - frequentFrom
	if rep.RSSKiB, err = peakRSSKiB(); err != nil {
		return nil, err
	}
	if rep.Support.Requests < 1 || rep.Frequent.Requests < 1 {
		return nil, fmt.Errorf("a serve leg answered no request (support %d, frequent %d)", rep.Support.Requests, rep.Frequent.Requests)
	}
	if !traced {
		return rep, nil
	}

	// Replay the legs' probes straight against the backend, with no HTTP
	// or JSON, then time the mmap open alone.
	ctx := context.Background()
	t := time.Now()
	for i := 0; i < supportUsed; i++ {
		p := ps.Support[(supportFrom+i)%len(ps.Support)]
		if _, err := d.b.Support(ctx, p.L1, p.L2, p.D); err != nil {
			return nil, err
		}
	}
	st.SupportBackendUs = time.Since(t).Seconds() * 1e6 / float64(supportUsed)
	t = time.Now()
	for i := 0; i < frequentUsed; i++ {
		q := ps.Frequent[(frequentFrom+i)%len(ps.Frequent)]
		if _, _, err := d.b.Frequent(ctx, q.MinSup, q.MaxDist, q.Limit); err != nil {
			return nil, err
		}
	}
	st.FrequentBackendMs = time.Since(t).Seconds() * 1e3 / float64(frequentUsed)
	var opens []float64
	for i := 0; i < minReopens; i++ {
		t := time.Now()
		m, err := store.OpenMapped(index)
		if err != nil {
			return nil, err
		}
		opens = append(opens, time.Since(t).Seconds())
		if err := m.Close(); err != nil {
			return nil, err
		}
	}
	st.OpenS = median(opens)
	rep.Trace = &st
	return rep, nil
}

// Cold-start loop bounds per serving process and the verification
// sampling rates.
const (
	minReopens        = 7
	maxReopens        = 400
	supportKeepEvery  = 400
	frequentKeepEvery = 40
)

// cacheBypass reads the serve package's process-wide bypass counter.
func cacheBypass() int64 {
	m, ok := expvar.Get("cousinserve").(*expvar.Map)
	if !ok {
		return 0
	}
	if v, ok := m.Get("cache.bypass").(*expvar.Int); ok {
		return v.Value()
	}
	return 0
}

// serveChild is the entry point of the serving process.
func serveChild(args []string) error {
	fs := newFlagSet("serve")
	index := fs.String("index", "", "v4 index to serve")
	probes := fs.String("probes", "", "probe set (JSON)")
	var times serveTimes
	fs.DurationVar(&times.Reopen, "reopen", time.Second, "time budget of the cold-start loop")
	fs.DurationVar(&times.Warmup, "warmup", time.Second, "support warm-up")
	fs.DurationVar(&times.Support, "support", time.Second, "support leg")
	fs.DurationVar(&times.Frequent, "frequent", time.Second, "frequent leg")
	traced := fs.Bool("traced", false, "also replay probes against the backend")
	if err := fs.Parse(args); err != nil {
		return err
	}
	raw, err := os.ReadFile(*probes)
	if err != nil {
		return err
	}
	var ps probeSet
	if err := json.Unmarshal(raw, &ps); err != nil {
		return fmt.Errorf("probes: %w", err)
	}
	rep, err := serveIndex(*index, &ps, times, *traced)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	return writeJSONLine(os.Stdout, rep)
}
