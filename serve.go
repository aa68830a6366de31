package treemine

// The query-service facade: open a mined v4 index read-only and serve
// pair-support, frequent-pair, tree-distance, and stats queries over
// HTTP+JSON — the library half of the cousinserve daemon, for embedding
// the same endpoints in another process. See the "Serving queries"
// section of the README.

import (
	"io"

	"treemine/internal/serve"
)

// QueryBackend answers cousin-pair queries from one immutably loaded
// index; it is safe for unlimited concurrent readers.
type QueryBackend = serve.Backend

// QueryServerConfig tunes a QueryServer (result-cache size, per-request
// deadline); the zero value selects the defaults.
type QueryServerConfig = serve.Config

// QueryServer serves a QueryBackend over HTTP+JSON: mount Handler() on
// an http.Server and stop with http.Server.Shutdown.
type QueryServer = serve.Server

// QueryCacheStats is a snapshot of a QueryServer's result-cache
// counters.
type QueryCacheStats = serve.CacheStats

// OpenQueryBackend reads a v4 index file (written by `cousindex build`
// or `cousindex compact`) and returns the backend serving it. Any other
// input fails with an error wrapping the store's bad-magic error and
// naming `cousindex compact`, which converts an older index or shard
// checkpoint once. A file written from an index answers every
// endpoint; one compacted from a shard holds aggregate counts only
// (support, frequent, and stats). A reader can't be memory-mapped, so
// the image is held in memory here; prefer OpenQueryBackendPath.
func OpenQueryBackend(r io.Reader) (*QueryBackend, error) { return serve.Open(r) }

// OpenQueryBackendPath memory-maps the v4 index file at path: startup
// is O(1) in index size and queries binary-search the file in place.
// Other inputs fail as with OpenQueryBackend. Close the backend when
// done.
func OpenQueryBackendPath(path string) (*QueryBackend, error) { return serve.OpenPath(path) }

// NewQueryServer returns an HTTP query server over the backend.
func NewQueryServer(b *QueryBackend, cfg QueryServerConfig) *QueryServer {
	return serve.New(b, cfg)
}
