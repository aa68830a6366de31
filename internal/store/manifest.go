package store

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"treemine/internal/core"
)

// Partition manifests (DESIGN.md §51) are the coordinator/worker
// protocol of distributed mining. The planner splits a corpus into
// contiguous tree ranges, writes one manifest naming every range and
// the shard file its worker must produce, and exits. Workers and the
// merger are then driven entirely by the manifest: a worker looks up
// its partition's (skip, trees) range and mines it to the named shard;
// the merger folds every partition's shard into the master, verifying
// per-partition provenance (the shard exists, loads, and covers
// exactly the trees the plan assigned) so a missing or torn worker
// output names the one range that must be re-mined.
//
// The format is JSON — it is the one artifact of the pipeline meant to
// be read, diffed, and hand-edited by operators — with a format tag and
// version for forward compatibility, written through AtomicWrite like
// every other checkpoint.

// ManifestFormat tags a partition-manifest file.
const ManifestFormat = "treemine-partition-manifest"

// ManifestVersion is the current manifest schema version.
const ManifestVersion = 1

// ManifestOptions is the JSON image of core.ForestOptions. MaxDist is
// kept in half-edge units (the Dist representation) so the manifest
// round-trips exactly.
type ManifestOptions struct {
	// MaxDistHalves is core.Dist's integer representation: twice the
	// paper's maxdist (3 ⇒ 1.5).
	MaxDistHalves int  `json:"maxdist_halves"`
	MinOccur      int  `json:"minoccur"`
	MinSup        int  `json:"minsup"`
	IgnoreDist    bool `json:"ignoredist"`
}

// ForestOptions converts back to the mining options.
func (o ManifestOptions) ForestOptions() core.ForestOptions {
	return core.ForestOptions{
		Options: core.Options{MaxDist: core.Dist(o.MaxDistHalves), MinOccur: o.MinOccur},
		MinSup:  o.MinSup,
		// IgnoreDist rides on ForestOptions, not Options.
		IgnoreDist: o.IgnoreDist,
	}
}

// manifestOptions converts mining options to their JSON image.
func manifestOptions(opts core.ForestOptions) ManifestOptions {
	return ManifestOptions{
		MaxDistHalves: int(opts.MaxDist),
		MinOccur:      opts.MinOccur,
		MinSup:        opts.MinSup,
		IgnoreDist:    opts.IgnoreDist,
	}
}

// Partition is one contiguous tree range and the worker shard that
// covers it.
type Partition struct {
	// Index is the partition's position in the plan, 0-based.
	Index int `json:"index"`
	// Skip is the number of corpus trees before the range.
	Skip int `json:"skip"`
	// Trees is the number of trees in the range.
	Trees int `json:"trees"`
	// Shard is the worker's output file, relative to the manifest's
	// directory.
	Shard string `json:"shard"`
}

// Manifest is a distributed mining plan: the corpus, the mining
// options, and the partition table. Inputs are absolute paths (workers
// may run from any directory); shard names are relative to the
// manifest's directory (the whole work directory can be moved or
// archived as a unit).
type Manifest struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	// Options are the mining options every worker must use — the merge
	// refuses shards mined under anything else.
	Options ManifestOptions `json:"options"`
	// Inputs are the corpus files, absolute, in mining order.
	Inputs []string `json:"inputs"`
	// TotalTrees is the corpus size the planner counted; partitions
	// must tile [0, TotalTrees) exactly.
	TotalTrees int `json:"total_trees"`
	// Master is the merged output shard, relative to the manifest's
	// directory.
	Master string `json:"master"`
	// Partitions is the partition table, in range order.
	Partitions []Partition `json:"partitions"`

	// dir is the directory the manifest was loaded from (or will be
	// saved under), the base for relative shard paths.
	dir string
}

// NewManifest plans an even split of totalTrees trees across at most
// parts partitions (clamped so no partition is empty; a corpus smaller
// than the partition count gets one tree per partition). Inputs must
// already be absolute.
func NewManifest(inputs []string, totalTrees, parts int, opts core.ForestOptions) (*Manifest, error) {
	if parts < 1 {
		return nil, fmt.Errorf("store: manifest: partition count must be positive, got %d", parts)
	}
	if totalTrees < 1 {
		return nil, fmt.Errorf("store: manifest: corpus has no trees to partition")
	}
	if len(inputs) == 0 {
		return nil, fmt.Errorf("store: manifest: no input files")
	}
	for _, in := range inputs {
		if !filepath.IsAbs(in) {
			return nil, fmt.Errorf("store: manifest: input %q is not absolute", in)
		}
	}
	if parts > totalTrees {
		parts = totalTrees
	}
	m := &Manifest{
		Format:     ManifestFormat,
		Version:    ManifestVersion,
		Options:    manifestOptions(opts),
		Inputs:     append([]string(nil), inputs...),
		TotalTrees: totalTrees,
		Master:     "master.shard",
	}
	// Spread the remainder over the leading partitions so sizes differ
	// by at most one tree.
	per, rem := totalTrees/parts, totalTrees%parts
	skip := 0
	for i := 0; i < parts; i++ {
		n := per
		if i < rem {
			n++
		}
		m.Partitions = append(m.Partitions, Partition{
			Index: i,
			Skip:  skip,
			Trees: n,
			Shard: fmt.Sprintf("worker-%03d.shard", i),
		})
		skip += n
	}
	return m, nil
}

// validate checks the structural invariants every manifest consumer
// relies on: format tag, version, options in range, and a partition
// table that tiles [0, TotalTrees) contiguously.
func (m *Manifest) validate() error {
	if m.Format != ManifestFormat {
		return fmt.Errorf("store: manifest: format %q, want %q", m.Format, ManifestFormat)
	}
	if m.Version != ManifestVersion {
		return fmt.Errorf("store: manifest: version %d unsupported (have %d)", m.Version, ManifestVersion)
	}
	if m.Options.MaxDistHalves < 0 {
		return fmt.Errorf("store: manifest: negative maxdist")
	}
	if len(m.Inputs) == 0 {
		return fmt.Errorf("store: manifest: no inputs")
	}
	if m.Master == "" {
		return fmt.Errorf("store: manifest: no master shard name")
	}
	if len(m.Partitions) == 0 {
		return fmt.Errorf("store: manifest: no partitions")
	}
	skip := 0
	for i, p := range m.Partitions {
		if p.Index != i {
			return fmt.Errorf("store: manifest: partition %d has index %d", i, p.Index)
		}
		if p.Skip != skip {
			return fmt.Errorf("store: manifest: partition %d starts at tree %d, want %d (ranges must be contiguous)", i, p.Skip, skip)
		}
		if p.Trees < 1 {
			return fmt.Errorf("store: manifest: partition %d is empty", i)
		}
		if p.Shard == "" {
			return fmt.Errorf("store: manifest: partition %d has no shard name", i)
		}
		skip += p.Trees
	}
	if skip != m.TotalTrees {
		return fmt.Errorf("store: manifest: partitions cover %d trees, corpus has %d", skip, m.TotalTrees)
	}
	return nil
}

// Describes reports whether the manifest plans exactly the job given
// by inputs (absolute corpus paths, in order) and opts — the check a
// resuming coordinator makes before reusing a work directory's plan,
// so a stale plan for a different corpus or different mining options
// can never silently shape a resumed run.
func (m *Manifest) Describes(inputs []string, opts core.ForestOptions) error {
	if len(inputs) != len(m.Inputs) {
		return fmt.Errorf("store: manifest plans %d input files, job has %d", len(m.Inputs), len(inputs))
	}
	for i, in := range inputs {
		if m.Inputs[i] != in {
			return fmt.Errorf("store: manifest input %d is %s, job names %s", i, m.Inputs[i], in)
		}
	}
	if m.Options != manifestOptions(opts) {
		return fmt.Errorf("store: manifest was planned under different mining options")
	}
	return nil
}

// Save atomically writes the manifest to path and remembers path's
// directory as the base for relative shard names.
func (m *Manifest) Save(path string) error {
	if err := m.validate(); err != nil {
		return err
	}
	m.dir = filepath.Dir(path)
	return AtomicWrite(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(m)
	})
}

// LoadManifest reads and validates a manifest, remembering its
// directory as the base for relative shard names.
func LoadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m := &Manifest{}
	if err := json.Unmarshal(data, m); err != nil {
		return nil, fmt.Errorf("store: manifest %s: %w", path, err)
	}
	if err := m.validate(); err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	m.dir = filepath.Dir(path)
	return m, nil
}

// ShardPath resolves partition i's shard file against the manifest's
// directory.
func (m *Manifest) ShardPath(i int) string {
	return filepath.Join(m.dir, m.Partitions[i].Shard)
}

// MasterPath resolves the master shard file against the manifest's
// directory.
func (m *Manifest) MasterPath() string {
	return filepath.Join(m.dir, m.Master)
}

// PartialPath is where a partial merge writes its master.
func (m *Manifest) PartialPath() string { return m.MasterPath() + ".partial" }
