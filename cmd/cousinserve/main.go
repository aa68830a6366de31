// Command cousinserve is the long-running cousin-pair query daemon: it
// loads a mined index read-only at startup and answers concurrent
// HTTP+JSON queries until stopped — index once, query forever.
//
// Usage:
//
//	cousinserve -index db.v4 [-addr :8437] [-cache 4096]
//	            [-timeout 5s] [-drain 10s] [-addr-file PATH]
//
// The -index file is a v4 file, as `cousindex build` or `cousindex
// compact` writes it. It is memory-mapped, so startup is O(1) regardless
// of index size and queries binary-search the file in place. An older
// cousindex v1/v2 index or cousinmine v3 shard checkpoint is refused
// with a hint naming `cousindex compact`, which converts it once. A file
// written from an index answers every endpoint; one compacted from a
// shard holds aggregate counts, not per-tree item sets, so it answers
// support (in the distance form it was mined with), frequent and stats.
//
// Endpoints:
//
//	GET /v1/support?l1=A&l2=B[&dist=0.5|*]    support of a label pair
//	GET /v1/frequent[?minsup=2][&maxdist=1.5][&limit=100]
//	                                          frequent-pair listing
//	GET /v1/tdist?t1=NAME&t2=NAME[&variant=label|dist|occ|distocc]
//	                                          tree distance + similarity
//	GET /v1/stats                             index statistics
//	GET /healthz                              liveness probe
//	GET /debug/vars                           expvar metrics
//	GET /debug/pprof/                         profiles
//
// Every query endpoint serves JSON; results are cached in a sharded LRU
// (-cache entries, negative disables) and each request runs under the
// -timeout deadline. The first SIGINT/SIGTERM stops accepting new
// connections, drains in-flight requests for up to -drain, and exits 0;
// a second signal force-exits. -addr-file writes the bound address
// (host:port) after the listener is up, for scripts starting the daemon
// on port 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"treemine/internal/serve"
	"treemine/internal/sigctx"
)

func main() {
	ctx, stop := sigctx.WithSignals(context.Background())
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cousinserve:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("cousinserve", flag.ContinueOnError)
	fs.SetOutput(stdout)
	index := fs.String("index", "", "v4 index file to serve (required)")
	addr := fs.String("addr", ":8437", "listen address")
	cache := fs.Int("cache", serve.DefaultCacheEntries, "result cache entries; negative disables")
	timeout := fs.Duration("timeout", serve.DefaultRequestTimeout, "per-request deadline; negative disables")
	drain := fs.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")
	addrFile := fs.String("addr-file", "", "write the bound host:port to this file once listening")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *index == "" {
		return fmt.Errorf("-index is required")
	}

	b, err := serve.OpenPath(*index)
	if err != nil {
		return fmt.Errorf("load %s: %w", *index, err)
	}
	defer b.Close()

	s := serve.New(b, serve.Config{CacheEntries: *cache, RequestTimeout: *timeout})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			ln.Close()
			return err
		}
	}
	fmt.Fprintf(stdout, "cousinserve: serving %s (%d trees) on %s\n",
		*index, b.Trees(), ln.Addr())

	srv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(stdout, "cousinserve: drained, exiting")
	return nil
}
