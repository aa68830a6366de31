package oracle

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// File is a decoded v4 file: the header, the label table, every record
// with its support, the support-descending permutation and, when the
// file has the per-tree section, every tree.
type File struct {
	IgnoreDist, Generic       bool
	MaxDist, MinOccur, MinSup int
	Trees, Items              int // header counts; Items is the per-tree item total

	Labels  []string // by rank
	Records []Pair   // in file order
	Perm    []int    // record numbers, support descending
	Tree    []Tree   // nil without the per-tree section
}

// Tree is one tree of the per-tree section.
type Tree struct {
	Name  string
	Nodes int
	Items []TreeItem // in file order
}

// TreeItem is one of a tree's items: a record number and the tree's
// occurrence count of it.
type TreeItem struct{ Rec, Occur int }

// Header field offsets, from DESIGN.md §9 and §14.
const (
	hdrLen   = 164
	descLen  = 40 // the per-tree descriptor after the header
	flagWild = 1 << 0
	flagGen  = 1 << 1
	flagTree = 1 << 2
)

var errV4 = errors.New("oracle: not a well-formed v4 file")

// decoder reads little-endian fields of one file and remembers the
// first out-of-bounds read.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", errV4, fmt.Sprintf(format, args...))
	}
}

func (d *decoder) u64(off uint64) uint64 {
	if s := d.section(off, 8); s != nil {
		return binary.LittleEndian.Uint64(s)
	}
	return 0
}

func (d *decoder) u32(off uint64) uint32 {
	if s := d.section(off, 4); s != nil {
		return binary.LittleEndian.Uint32(s)
	}
	return 0
}

// section returns bytes [off, off+n) or fails.
func (d *decoder) section(off, n uint64) []byte {
	size := uint64(len(d.b))
	if d.err != nil || off > size || n > size-off {
		d.fail("[%d, +%d) outside %d bytes", off, n, size)
		return nil
	}
	return d.b[off : off+n]
}

// count reads a count of entries of the given width, failing when that
// many could not fit in the file.
func (d *decoder) count(off, width uint64) int {
	n := d.u64(off)
	if n > uint64(len(d.b))/width {
		d.fail("count %d at %d", n, off)
		return 0
	}
	return int(n)
}

// strings slices n variable-length entries out of a data section
// through an index of n+1 u64 offsets relative to the data's start.
func (d *decoder) strings(n int, idxOff, dataOff, dataLen uint64) [][]byte {
	data := d.section(dataOff, dataLen)
	out := make([][]byte, 0, n)
	for i := uint64(0); d.err == nil && i < uint64(n); i++ {
		lo, hi := d.u64(idxOff+8*i), d.u64(idxOff+8*i+8)
		if lo > hi || hi > uint64(len(data)) {
			d.fail("entry %d spans [%d, %d) of %d bytes", i, lo, hi, len(data))
			break
		}
		out = append(out, data[lo:hi])
	}
	return out
}

// DecodeV4 decodes a v4 file. It checks the magic, the file size and
// both checksums, and that every section, offset and record number it
// follows lies in bounds; it checks no order and no other invariant.
func DecodeV4(b []byte) (*File, error) {
	if len(b) < hdrLen || string(b[:12]) != "TREEMINEIDX4" {
		return nil, fmt.Errorf("%w: no v4 header", errV4)
	}
	d := &decoder{b: b}
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	if d.u64(148) != uint64(len(b)) || crc32.Checksum(b[:160], castagnoli) != d.u32(160) ||
		crc32.Checksum(b[hdrLen:], castagnoli) != d.u32(156) {
		return nil, fmt.Errorf("%w: size or checksum mismatch", errV4)
	}
	flags := d.u64(12)
	f := &File{
		IgnoreDist: flags&flagWild != 0,
		Generic:    flags&flagGen != 0,
		MaxDist:    int(int64(d.u64(20))),
		MinOccur:   int(int64(d.u64(28))),
		MinSup:     int(int64(d.u64(36))),
		Trees:      int(int64(d.u64(44))),
		Items:      int(int64(d.u64(52))),
	}
	for _, l := range d.strings(d.count(60, 8), d.u64(68), d.u64(76), d.u64(84)) {
		f.Labels = append(f.Labels, string(l))
	}
	if f.Generic {
		for _, r := range d.strings(d.count(108, 8), d.u64(116), d.u64(124), d.u64(132)) {
			le := binary.LittleEndian
			if len(r) < 24 || uint64(len(r)) != 24+uint64(le.Uint32(r))+uint64(le.Uint32(r[4:])) {
				d.fail("generic record %d of %d bytes", len(f.Records), len(r))
				break
			}
			la := 24 + uint64(le.Uint32(r))
			k := Key{string(r[24:la]), string(r[la:]), int(int64(le.Uint64(r[8:])))}
			f.Records = append(f.Records, Pair{k, int(int64(le.Uint64(r[16:])))})
		}
	} else {
		n, off := d.count(92, 16), d.u64(100)
		for i := uint64(0); d.err == nil && i < uint64(n); i++ {
			key := d.u64(off + 16*i)
			a, c := key>>34, key>>4&(1<<30-1)
			if a >= uint64(len(f.Labels)) || c >= uint64(len(f.Labels)) {
				d.fail("posting %d names labels %d, %d of %d", i, a, c, len(f.Labels))
				break
			}
			k := Key{f.Labels[a], f.Labels[c], int(key&15) - 1}
			f.Records = append(f.Records, Pair{k, int(int64(d.u64(off + 16*i + 8)))})
		}
	}
	off := d.u64(140)
	for i := uint64(0); d.err == nil && i < uint64(len(f.Records)); i++ {
		r := int(d.u32(off + 4*i))
		if r >= len(f.Records) {
			d.fail("permutation entry %d names record %d", i, r)
		}
		f.Perm = append(f.Perm, r)
	}
	if flags&flagTree != 0 && d.err == nil {
		f.Tree = d.trees(f)
	}
	if d.err != nil {
		return nil, d.err
	}
	return f, nil
}

// trees decodes the per-tree section named by the descriptor after the
// header: (trees+1) entries of (name offset, item number, nodes), the
// names, and (record u32, occur u32) items.
func (d *decoder) trees(f *File) []Tree {
	if len(d.b) < hdrLen+descLen {
		d.fail("per-tree descriptor truncated")
		return nil
	}
	idxOff, nameOff, itemOff, nameLen := d.u64(hdrLen), d.u64(hdrLen+8), d.u64(hdrLen+16), d.u64(hdrLen+32)
	if uint64(f.Trees) >= uint64(len(d.b))/24 || uint64(f.Items) > uint64(len(d.b))/8 {
		d.fail("%d trees, %d items", f.Trees, f.Items)
		return nil
	}
	names := d.section(nameOff, nameLen)
	out := make([]Tree, 0, f.Trees)
	for t := uint64(0); d.err == nil && t < uint64(f.Trees); t++ {
		e := idxOff + 24*t
		n0, i0, nodes, n1, i1 := d.u64(e), d.u64(e+8), d.u64(e+16), d.u64(e+24), d.u64(e+32)
		if n0 > n1 || n1 > uint64(len(names)) || i0 > i1 || i1 > uint64(f.Items) {
			d.fail("tree %d spans names [%d, %d) and items [%d, %d)", t, n0, n1, i0, i1)
			break
		}
		tr := Tree{Name: string(names[n0:n1]), Nodes: int(nodes)}
		for i := i0; d.err == nil && i < i1; i++ {
			rec := int(d.u32(itemOff + 8*i))
			if rec >= len(f.Records) {
				d.fail("tree %d item %d names record %d", t, i, rec)
			}
			tr.Items = append(tr.Items, TreeItem{rec, int(d.u32(itemOff + 8*i + 4))})
		}
		out = append(out, tr)
	}
	return out
}
