package store

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"treemine/internal/core"
)

// magicV3 identifies a serialized support shard — the checkpoint format
// of the streaming mining pipeline. Unlike v1/v2 index files (per-tree
// item sets for querying), a v3 file is a partial aggregate: the label
// table and packed support counts of a core.SupportShard, plus the
// mining options and how many trees have been folded in. Shards saved
// from different machines or runs can be reloaded and merged.
const magicV3 = "TREEMINEIDX3"

// savedShardV3 is the version-3 gob payload: shard header (options +
// tree count), the shard-local label table, and the packed counts.
type savedShardV3 struct {
	Opts   core.ForestOptions
	Trees  int
	Labels []string
	Items  []core.ShardItem
}

// SaveShard writes sh as a v3 checkpoint: magic header, then the gob
// payload of its snapshot. The shard stays usable — Snapshot does not
// consume it — so a streaming run can checkpoint and keep mining.
func SaveShard(w io.Writer, sh *core.SupportShard) error {
	opts, trees, labels, items := sh.Snapshot()
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magicV3); err != nil {
		return fmt.Errorf("store: write header: %w", err)
	}
	saved := savedShardV3{Opts: opts, Trees: trees, Labels: labels, Items: items}
	if err := gob.NewEncoder(bw).Encode(saved); err != nil {
		return fmt.Errorf("store: encode shard: %w", err)
	}
	return bw.Flush()
}

// writeShard durably replaces the file at path with sh's v3 checkpoint.
func writeShard(path string, sh *core.SupportShard) error {
	return AtomicWrite(path, func(w io.Writer) error { return SaveShard(w, sh) })
}

// loadShardFile reads the v3 checkpoint at path.
func loadShardFile(path string) (*core.SupportShard, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadShard(f)
}

// LoadShard reads a v3 checkpoint written by SaveShard and rebuilds the
// shard, validating the payload (symbol ranges, count positivity,
// distance bounds) so corrupt or adversarial files error out instead of
// poisoning a resumed run. ErrBadMagic and ErrCorrupt wrap the failure
// modes like Load's.
func LoadShard(r io.Reader) (*core.SupportShard, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(magicV3))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadMagic, err)
	}
	if string(head) != magicV3 {
		return nil, ErrBadMagic
	}
	var saved savedShardV3
	if err := gob.NewDecoder(br).Decode(&saved); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	sh, err := core.RestoreShard(saved.Opts, saved.Trees, saved.Labels, saved.Items)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	return sh, nil
}
