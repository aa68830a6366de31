// Package store persists mined cousin-pair item sets so a phylogeny
// database can be mined once and queried many times — the natural
// database-systems complement to the paper's algorithms (mining 1,500
// TreeBASE phylogenies takes sub-second here, but the paper's original
// K implementation took minutes, and either way re-mining on every
// support query is waste). An Index holds each tree's item set,
// serializes with encoding/gob behind a versioned magic header, and
// compacts into the v4 layout every query is answered from (v4.go).
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

// Magic strings identifying index files; the trailing digit is the
// format version. Version 2 stores one file-global symbol table and
// integer-coded items (labels appear once in the file no matter how many
// items share them); version 1 stored string-keyed item maps. Save
// writes v2; Load reads both.
const (
	magicV1 = "TREEMINEIDX1"
	magicV2 = "TREEMINEIDX2"
)

// Errors reported by Load.
var (
	// ErrBadMagic is returned when the input is not an index file or is
	// a different format version.
	ErrBadMagic = errors.New("store: not a treemine index (bad magic)")
	// ErrCorrupt is returned when the payload fails to decode.
	ErrCorrupt = errors.New("store: corrupt index")
)

// TreeEntry is the persisted mining result of one tree.
type TreeEntry struct {
	Name  string
	Nodes int
	Items core.ItemSet
}

// Index is a collection of per-tree item sets. Build one with Build,
// persist with Save, reload with Load, and query it by compacting it to
// v4 (CompactIndexV4, OpenMappedReader).
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
// maps. Kept for backward-compatible reads (and to author fixtures in
// tests); Save no longer writes it.
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

// Save writes the index: magic header, then a gob stream of the
// version-2 interned payload.
func (ix *Index) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magicV2); err != nil {
		return fmt.Errorf("store: write header: %w", err)
	}
	syms := core.NewSymbols()
	saved := savedIndexV2{Options: ix.Options, Trees: make([]savedTreeV2, len(ix.Entries))}
	for i, e := range ix.Entries {
		st := savedTreeV2{Name: e.Name, Nodes: e.Nodes, Items: make([]savedItem, 0, len(e.Items))}
		// Sorted items intern symbols and write items in one fixed order,
		// so equal indexes save to equal bytes.
		for _, it := range e.Items.Items() {
			st.Items = append(st.Items, savedItem{
				A: syms.Intern(it.Key.A),
				B: syms.Intern(it.Key.B),
				D: it.Key.D,
				N: it.Occur,
			})
		}
		saved.Trees[i] = st
	}
	saved.Labels = make([]string, syms.Len())
	for id := range saved.Labels {
		saved.Labels[id] = syms.Label(uint32(id))
	}
	if err := gob.NewEncoder(bw).Encode(saved); err != nil {
		return fmt.Errorf("store: encode: %w", err)
	}
	return bw.Flush()
}

// Load reads an index written by Save, accepting both the current
// version-2 format and the original version-1 format.
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
		return &Index{Options: saved.Options, Entries: saved.Entries}, nil
	default:
		return nil, ErrBadMagic
	}
}
