// Package store persists mined cousin-pair item sets so a phylogeny
// database can be mined once and queried many times — the natural
// database-systems complement to the paper's algorithms (mining 1,500
// TreeBASE phylogenies takes sub-second here, but the paper's original
// K implementation took minutes, and either way re-mining on every
// support query is waste). An Index holds each tree's item set and
// compacts into the v4 layout every query is answered from (v4.go);
// Load reads the gob index files of earlier versions so CompactV4 can
// convert them.
package store

import (
	"bufio"
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"treemine/internal/core"
	"treemine/internal/tree"
)

// Magic strings identifying the gob index files earlier versions
// wrote; the trailing digit is the format version. Version 2 stores one
// file-global symbol table and integer-coded items; version 1 stored
// string-keyed item maps. Nothing writes either any more; Load reads
// both, for CompactV4.
const (
	magicV1 = "TREEMINEIDX1"
	magicV2 = "TREEMINEIDX2"
)

// Errors reported by Load.
var (
	// ErrBadMagic is returned when the input is not a store file of the
	// expected format version.
	ErrBadMagic = errors.New("store: bad magic")
	// ErrCorrupt is returned when the payload fails to decode.
	ErrCorrupt = errors.New("store: corrupt index")
)

// TreeEntry is the persisted mining result of one tree.
type TreeEntry struct {
	Name  string
	Nodes int
	Items core.ItemSet
}

// Index is a collection of per-tree item sets. Build one with Build and
// persist it as the v4 file every query opens with CompactIndexV4.
type Index struct {
	// Options are the mining parameters the index was built with;
	// queries are only meaningful at these parameters.
	Options core.Options
	Entries []TreeEntry
}

// Build mines every tree and assembles the index. names may be nil (trees
// are then named by position) or must match trees in length.
func Build(trees []*tree.Tree, names []string, opts core.Options) (*Index, error) {
	if names != nil && len(names) != len(trees) {
		return nil, fmt.Errorf("store: %d names for %d trees", len(names), len(trees))
	}
	ix := &Index{Options: opts}
	for i, t := range trees {
		name := fmt.Sprintf("tree_%d", i+1)
		if names != nil {
			name = names[i]
		}
		ix.Entries = append(ix.Entries, TreeEntry{
			Name:  name,
			Nodes: t.Size(),
			Items: core.Mine(t, opts),
		})
	}
	return ix, nil
}

// NumTrees returns the number of indexed trees.
func (ix *Index) NumTrees() int { return len(ix.Entries) }

// savedIndexV1 is the version-1 gob payload: per-tree string-keyed item
// maps.
type savedIndexV1 struct {
	Options core.Options
	Entries []TreeEntry
}

// savedItem is one cousin pair item coded against the file's symbol
// table: two symbol IDs (order irrelevant; keys re-canonicalize on
// load), a distance, and the occurrence count.
type savedItem struct {
	A, B uint32
	D    core.Dist
	N    int
}

// savedTreeV2 is one tree's mining result in the version-2 payload.
type savedTreeV2 struct {
	Name  string
	Nodes int
	Items []savedItem
}

// savedIndexV2 is the version-2 gob payload: one symbol table for the
// whole file (Labels[id] is the label of symbol id) and integer-coded
// items, so each label is stored once no matter how many trees and items
// share it.
type savedIndexV2 struct {
	Options core.Options
	Labels  []string
	Trees   []savedTreeV2
}

// Load reads a version-1 or version-2 index file. Every item must name
// symbols in the file's table and lie within [0, MaxDist]: CompactV4
// packs distances into IKeys, whose 4-bit field would carry an
// out-of-range one into the label bits.
func Load(r io.Reader) (*Index, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(magicV2))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadMagic, err)
	}
	switch string(head) {
	case magicV2:
		var saved savedIndexV2
		if err := gob.NewDecoder(br).Decode(&saved); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
		}
		ix := &Index{Options: saved.Options, Entries: make([]TreeEntry, len(saved.Trees))}
		for i, st := range saved.Trees {
			items := make(core.ItemSet, len(st.Items))
			for _, it := range st.Items {
				if int(it.A) >= len(saved.Labels) || int(it.B) >= len(saved.Labels) {
					return nil, fmt.Errorf("%w: symbol id out of range", ErrCorrupt)
				}
				if err := checkItemDist(it.D, saved.Options); err != nil {
					return nil, err
				}
				items[core.NewKey(saved.Labels[it.A], saved.Labels[it.B], it.D)] = it.N
			}
			ix.Entries[i] = TreeEntry{Name: st.Name, Nodes: st.Nodes, Items: items}
		}
		return ix, nil
	case magicV1:
		var saved savedIndexV1
		if err := gob.NewDecoder(br).Decode(&saved); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
		}
		for _, e := range saved.Entries {
			for k := range e.Items {
				if err := checkItemDist(k.D, saved.Options); err != nil {
					return nil, err
				}
			}
		}
		return &Index{Options: saved.Options, Entries: saved.Entries}, nil
	default:
		return nil, ErrBadMagic
	}
}

// checkItemDist rejects an item distance outside [0, opts.MaxDist].
func checkItemDist(d core.Dist, opts core.Options) error {
	if d < 0 || d > opts.MaxDist {
		return fmt.Errorf("%w: item distance %s outside [0, %s]", ErrCorrupt, d, opts.MaxDist)
	}
	return nil
}
