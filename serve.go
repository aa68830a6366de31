package treemine

// The query-service facade: load a mined index or shard checkpoint
// read-only and serve pair-support, frequent-pair, tree-distance, and
// stats queries over HTTP+JSON — the library half of the cousinserve
// daemon, for embedding the same endpoints in another process. See the
// "Serving queries" section of the README.

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

// OpenQueryBackend loads a store file and returns the backend serving
// it. Every query is answered from the v4 layout: v4 bytes are served
// as they are, and a cousindex v1/v2 index or a cousinmine v3 shard
// checkpoint is compacted to v4 in memory first. A file from an index
// answers every endpoint; one from a shard holds aggregate counts only
// (support, frequent, and stats). A reader can't be memory-mapped, so
// the image is held in memory here; prefer OpenQueryBackendPath for v4
// files.
func OpenQueryBackend(r io.Reader) (*QueryBackend, error) { return serve.Open(r) }

// OpenQueryBackendPath opens the store file at path, auto-detecting the
// format by magic. v4 compacted files (CompactIndexV4 / cousindex
// compact) are memory-mapped: startup is O(1) in index size and queries
// binary-search the file in place; other formats load as with
// OpenQueryBackend. Close the backend when done.
func OpenQueryBackendPath(path string) (*QueryBackend, error) { return serve.OpenPath(path) }

// NewQueryServer returns an HTTP query server over the backend.
func NewQueryServer(b *QueryBackend, cfg QueryServerConfig) *QueryServer {
	return serve.New(b, cfg)
}
