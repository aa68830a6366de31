package oracle

import (
	"bufio"
	"encoding/gob"
	"io"
	"sort"
)

// IndexTree is one tree of a version-2 index file: its name, its node
// count and its mined items.
type IndexTree struct {
	Name  string
	Nodes int
	Items Items
}

// The version-2 payload, mirrored field for field from the gob index
// format `cousindex build` wrote before v4. gob matches struct fields
// by name, so these types encode what the store's decoder reads
// without sharing its code.
type (
	v2Options struct{ MaxDist, MinOccur int }
	v2Item    struct {
		A, B uint32 // symbol ids into v2Index.Labels
		D, N int
	}
	v2Tree struct {
		Name  string
		Nodes int
		Items []v2Item
	}
	v2Index struct {
		Options v2Options
		Labels  []string
		Trees   []v2Tree
	}
)

// EncodeV2 writes trees as a version-2 index file mined at maxDist (in
// halves) and minOccur: the magic "TREEMINEIDX2", then one gob value
// holding the options, a file-wide label table and every tree's items
// as symbol-id pairs. Items are written in key order and labels are
// numbered in order of first use, so equal inputs encode to equal
// bytes. It writes every item as given, out-of-range distances
// included, so tests can author hostile files.
func EncodeV2(w io.Writer, maxDist, minOccur int, trees []IndexTree) error {
	idx := v2Index{Options: v2Options{MaxDist: maxDist, MinOccur: minOccur}}
	ids := map[string]uint32{}
	id := func(label string) uint32 {
		n, ok := ids[label]
		if !ok {
			n = uint32(len(idx.Labels))
			ids[label] = n
			idx.Labels = append(idx.Labels, label)
		}
		return n
	}
	for _, t := range trees {
		keys := make([]Key, 0, len(t.Items))
		for k := range t.Items {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i].less(keys[j]) })
		vt := v2Tree{Name: t.Name, Nodes: t.Nodes}
		for _, k := range keys {
			vt.Items = append(vt.Items, v2Item{A: id(k.A), B: id(k.B), D: k.D, N: t.Items[k]})
		}
		idx.Trees = append(idx.Trees, vt)
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("TREEMINEIDX2"); err != nil {
		return err
	}
	if err := gob.NewEncoder(bw).Encode(idx); err != nil {
		return err
	}
	return bw.Flush()
}
