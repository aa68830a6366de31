package store

// Store format v4: a single flat file laid out for zero-copy mmap
// serving. Where v1–v3 are gob streams that must be decoded into Go
// maps before the first query (cost and resident heap proportional to
// index size, nothing shared between processes), a v4 file IS the
// queryable structure: a fixed-width header, the interned symbol table
// as offset-indexed string data sorted by label, and the support table
// as a sorted array of fixed-width (packed IKey, count) records — every
// lookup is a binary search directly on the mapped bytes, so a daemon
// opens in ~O(1) and the kernel page cache shares the postings across
// any number of processes.
//
// Shards mined past core.MaxPackedDist cannot use packed IKeys (the
// 4-bit distance field overflows: NewIKey(a,b,15) == NewIKey(a,b+1,
// DistWild), which PR 7's review fix established must never merge
// distinct pairs' counts). Those compact into a string-keyed section
// instead: length-prefixed (labelA, labelB, dist, count) records sorted
// by (A, B, D) behind a fixed-width offset index, binary-searched by
// direct byte comparison. A file holds exactly one of the two sections.
//
// Both sections carry a support-descending permutation so frequent-pair
// listings walk the mapped records in Finalize(1) order without
// materializing anything. Symbol IDs in a v4 file are RANKS in the
// sorted label table, which makes packed-IKey numeric order coincide
// with core.CompareKeys order — the base record order doubles as the
// tie-break order, so the permutation is just a stable support sort.
//
// A file written from an index (cousindex build, CompactIndexV4, or
// CompactV4 of a v1/v2 index file) also keeps the per-tree item sets
// the paper's tree distance (Eq. 6) and similarity (Eq. 4) need, and
// that wildcard support counts: flag bit 2 marks an optional per-tree
// section whose fixed-width descriptor sits right after the header.
// Each tree stores its name, its node count, and its items as
// (record index, occur) pairs sorted by record, where the record index
// points into the record section; a name-sorted permutation of the
// trees serves lookup by name. Files without the bit — every file
// compacted from a shard — carry no descriptor and are laid out exactly
// as before the section existed.
//
// Layout (all integers little-endian, sections 8-byte aligned):
//
//	offset 0    magic "TREEMINEIDX4" (12 bytes)
//	offset 12   fixed-width header (see v4Hdr* constants)
//	offset 164  per-tree descriptor (see v4Tree* constants; bit 2 only)
//	            symbol offset index: (symCount+1) × u64, relative to symData
//	            symbol string data (labels concatenated, sorted ascending)
//	            packed postings: postCount × (IKey u64, count i64)
//	            generic offset index: (genCount+1) × u64, relative to genData
//	            generic records: lenA u32, lenB u32, dist i64, count i64, A, B
//	            permutation: recCount × u32, support-descending stable order
//	            tree index: (trees+1) × (nameOff u64, itemOff u64, nodes u64)
//	            tree names (concatenated, index order)
//	            tree items: items × (record u32, occur u32)
//	            tree name order: trees × u32, sorted by (name, tree)
//
// The header stores a CRC32-C of itself and of the whole payload;
// OpenMapped verifies both plus every structural invariant binary
// search depends on (sorted labels, sorted keys, in-bounds offsets, a
// true permutation), so a corrupt or adversarial file errors out
// cleanly and can never panic a serving process.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"
	"sort"

	"treemine/internal/core"
	"treemine/internal/faults"
)

const magicV4 = "TREEMINEIDX4"

// Fixed header field offsets (from the start of the file) and lengths.
const (
	v4HdrFlags      = 12  // u64: bit0 IgnoreDist, bit1 generic section
	v4HdrMaxDist    = 20  // i64, core.Dist halves
	v4HdrMinOccur   = 28  // i64
	v4HdrMinSup     = 36  // i64
	v4HdrTrees      = 44  // i64
	v4HdrItems      = 52  // i64: source per-tree item total (0 for shards)
	v4HdrSymCount   = 60  // u64
	v4HdrSymIdxOff  = 68  // u64
	v4HdrSymDataOff = 76  // u64
	v4HdrSymDataLen = 84  // u64
	v4HdrPostCount  = 92  // u64
	v4HdrPostOff    = 100 // u64
	v4HdrGenCount   = 108 // u64
	v4HdrGenIdxOff  = 116 // u64
	v4HdrGenDataOff = 124 // u64
	v4HdrGenDataLen = 132 // u64
	v4HdrPermOff    = 140 // u64
	v4HdrFileSize   = 148 // u64
	v4HdrPayloadCRC = 156 // u32, CRC32-C of bytes [v4HeaderLen, fileSize)
	v4HdrHeaderCRC  = 160 // u32, CRC32-C of bytes [0, v4HdrHeaderCRC)
	v4HeaderLen     = 164

	v4FlagIgnoreDist = 1 << 0
	v4FlagGeneric    = 1 << 1
	v4FlagTrees      = 1 << 2

	// The per-tree descriptor (present with v4FlagTrees), covered by the
	// payload CRC: the four section offsets in section order, then the
	// name data length. The tree and item counts are the header's.
	v4TreeIdxOff   = v4HeaderLen      // u64: tree index
	v4TreeNameOff  = v4HeaderLen + 8  // u64: tree name data
	v4TreeItemsOff = v4HeaderLen + 16 // u64: (record, occur) pairs
	v4TreeOrderOff = v4HeaderLen + 24 // u64: name-sorted tree permutation
	v4TreeNameLen  = v4HeaderLen + 32 // u64
	v4TreeDescLen  = 40

	v4PostRecLen    = 16 // packed posting: IKey u64 + count i64
	v4GenPreludeLen = 24 // generic record prelude: lenA u32, lenB u32, d i64, n i64
	v4TreeRecLen    = 24 // tree index entry: nameOff u64, itemOff u64, nodes u64
	v4TreeItemLen   = 8  // tree item: record u32, occur u32
)

var v4CRCTable = crc32.MakeTable(crc32.Castagnoli)

// v4image is the in-memory form a source index or shard is normalized
// into before serialization: flat fixed-width slices (no maps), so the
// compaction sort runs in memory bounded by the number of distinct
// support entries plus labels, never by trees × items.
type v4image struct {
	opts   core.ForestOptions
	trees  int
	items  int64       // per-tree item total of the source, 0 for shards
	labels []string    // sorted ascending, unique; IDs below are ranks
	post   []v4Posting // packed section (MaxDist ≤ MaxPackedDist)
	gen    []v4GenRec  // generic section (past MaxPackedDist)
	perm   []uint32    // support-descending stable order over post or gen

	// The per-tree sections of an index source, encoded in descriptor
	// order (tree index, names, items, name order); nil for shards.
	treeSecs [][]byte
}

type v4Posting struct {
	key core.IKey
	n   int64
}

type v4GenRec struct {
	a, b string // canonical: a ≤ b
	d    core.Dist
	n    int64
}

func (img *v4image) generic() bool {
	return !img.opts.MaxDist.IsWild() && img.opts.MaxDist > core.MaxPackedDist
}

func (img *v4image) recCount() int {
	if img.generic() {
		return len(img.gen)
	}
	return len(img.post)
}

// sortAndPermute sorts the record section into key order (which, with
// rank-coded symbols, is exactly core.CompareKeys order), merges any
// duplicate keys by summing counts, and builds the support-descending
// stable permutation — the Finalize(1) listing order.
func (img *v4image) sortAndPermute() {
	if img.generic() {
		sort.Slice(img.gen, func(i, j int) bool {
			return cmpGenRec(&img.gen[i], &img.gen[j]) < 0
		})
		out := img.gen[:0]
		for _, r := range img.gen {
			if len(out) > 0 {
				last := &out[len(out)-1]
				if last.a == r.a && last.b == r.b && last.d == r.d {
					last.n += r.n
					continue
				}
			}
			out = append(out, r)
		}
		img.gen = out
	} else {
		sort.Slice(img.post, func(i, j int) bool { return img.post[i].key < img.post[j].key })
		out := img.post[:0]
		for _, p := range img.post {
			if len(out) > 0 && out[len(out)-1].key == p.key {
				out[len(out)-1].n += p.n
				continue
			}
			out = append(out, p)
		}
		img.post = out
	}
	img.perm = core.SupportOrder(img.recCount(), func(i int) int64 {
		if img.generic() {
			return img.gen[i].n
		}
		return img.post[i].n
	})
}

func cmpGenRec(x, y *v4GenRec) int {
	if c := bytes.Compare([]byte(x.a), []byte(y.a)); c != 0 {
		return c
	}
	if c := bytes.Compare([]byte(x.b), []byte(y.b)); c != 0 {
		return c
	}
	switch {
	case x.d < y.d:
		return -1
	case x.d > y.d:
		return 1
	}
	return 0
}

// rankLabels sorts a unique label set and returns the sorted slice plus
// the label → rank map used to recode items.
func rankLabels(labels []string) ([]string, map[string]uint32) {
	sorted := make([]string, len(labels))
	copy(sorted, labels)
	sort.Strings(sorted)
	rank := make(map[string]uint32, len(sorted))
	for i, l := range sorted {
		rank[l] = uint32(i)
	}
	return sorted, rank
}

// imageFromSnapshot normalizes a shard snapshot (the v3 payload shape)
// into a v4 image. A Snapshot's label table is sorted and unique, so its
// symbol IDs are the v4 label ranks as they stand; any other table is
// rejected.
func imageFromSnapshot(opts core.ForestOptions, trees int, labels []string, items []core.ShardItem) (*v4image, error) {
	if len(labels) > core.MaxSymbols {
		return nil, fmt.Errorf("store: compact: %d labels exceed the symbol space", len(labels))
	}
	if !strictlySorted(labels) {
		return nil, fmt.Errorf("store: compact: label table not canonical")
	}
	img := &v4image{opts: opts, trees: trees, labels: labels}
	if img.generic() {
		img.gen = make([]v4GenRec, 0, len(items))
		for _, it := range items {
			if int(it.A) >= len(labels) || int(it.B) >= len(labels) {
				return nil, fmt.Errorf("store: compact: symbol id out of range")
			}
			k := core.NewKey(labels[it.A], labels[it.B], it.D)
			img.gen = append(img.gen, v4GenRec{a: k.A, b: k.B, d: k.D, n: it.N})
		}
	} else {
		img.post = make([]v4Posting, 0, len(items))
		for _, it := range items {
			if int(it.A) >= len(labels) || int(it.B) >= len(labels) {
				return nil, fmt.Errorf("store: compact: symbol id out of range")
			}
			img.post = append(img.post, v4Posting{
				key: core.NewIKey(it.A, it.B, it.D),
				n:   it.N,
			})
		}
	}
	img.sortAndPermute()
	return img, nil
}

// strictlySorted reports whether labels ascend with no duplicates.
func strictlySorted(labels []string) bool {
	for i := 1; i < len(labels); i++ {
		if labels[i-1] >= labels[i] {
			return false
		}
	}
	return true
}

// imageFromIndex normalizes a per-tree index into a v4 image.
// Every item is rank-coded once, tagged with its tree and occurrence
// count, and all of them are radix-sorted by key together. One pass
// over that order then yields the records (each distinct key, counting
// the trees that hold it) and, dealt out by tree, every tree's (record,
// occur) list already in record order. No step keys a map by label
// pair, and nothing is searched.
func imageFromIndex(ix *Index) (*v4image, error) {
	labelSet := make(map[string]struct{})
	start := make([]int, len(ix.Entries)+1) // tree t's items are [start[t], start[t+1])
	for t, e := range ix.Entries {
		start[t+1] = start[t] + len(e.Items)
		for k := range e.Items {
			labelSet[k.A] = struct{}{}
			labelSet[k.B] = struct{}{}
		}
	}
	labels := make([]string, 0, len(labelSet))
	for l := range labelSet {
		labels = append(labels, l)
	}
	sorted, rank := rankLabels(labels)
	all := make([]core.ShardItem, 0, start[len(ix.Entries)]) // N = tree<<32 | occur
	for t, e := range ix.Entries {
		for k, n := range e.Items {
			if n < 1 || n > math.MaxUint32 {
				return nil, fmt.Errorf("store: compact: tree %q: bad item %v × %d", e.Name, k, n)
			}
			a, b := rank[k.A], rank[k.B]
			all = append(all, core.ShardItem{A: min(a, b), B: max(a, b), D: k.D, N: int64(t)<<32 | int64(n)})
		}
	}
	core.SortShardItems(all)
	var recs []core.ShardItem
	byTree := make([]uint64, len(all)) // record<<32 | occur, tree by tree
	next := slices.Clone(start[:len(ix.Entries)])
	for i, it := range all {
		if i == 0 || spillItemLess(all[i-1], it) {
			recs = append(recs, core.ShardItem{A: it.A, B: it.B, D: it.D})
		}
		recs[len(recs)-1].N++
		t := it.N >> 32
		byTree[next[t]] = uint64(len(recs)-1)<<32 | uint64(uint32(it.N))
		next[t]++
	}
	img, err := imageFromSnapshot(core.ForestOptions{Options: ix.Options, MinSup: 1}, ix.NumTrees(), sorted, recs)
	if err != nil {
		return nil, err
	}
	img.items = int64(len(all))

	le := binary.LittleEndian
	var idx, names, items []byte
	for t, e := range ix.Entries {
		idx = le.AppendUint64(idx, uint64(len(names)))
		idx = le.AppendUint64(idx, uint64(len(items)/v4TreeItemLen))
		idx = le.AppendUint64(idx, uint64(e.Nodes))
		names = append(names, e.Name...)
		for _, r := range byTree[start[t]:start[t+1]] {
			items = le.AppendUint32(items, uint32(r>>32))
			items = le.AppendUint32(items, uint32(r))
		}
	}
	idx = le.AppendUint64(idx, uint64(len(names)))
	idx = le.AppendUint64(idx, uint64(len(items)/v4TreeItemLen))
	idx = le.AppendUint64(idx, 0)
	// The name order: equal names keep tree order, so a lower-bound
	// search by name finds a name's first tree.
	order := make([]int, len(ix.Entries))
	for t := range order {
		order[t] = t
	}
	sort.SliceStable(order, func(i, j int) bool { return ix.Entries[order[i]].Name < ix.Entries[order[j]].Name })
	byName := make([]byte, 0, 4*len(order))
	for _, t := range order {
		byName = le.AppendUint32(byName, uint32(t))
	}
	img.treeSecs = [][]byte{idx, names, items, byName}
	return img, nil
}

// align8 pads buf to the next 8-byte boundary.
func align8(buf []byte) []byte {
	for len(buf)%8 != 0 {
		buf = append(buf, 0)
	}
	return buf
}

// appendV4 serializes the image into the complete file byte image,
// checksums included.
func (img *v4image) appendV4() []byte {
	var symData []byte
	symIdx := make([]byte, 0, 8*(len(img.labels)+1))
	off := uint64(0)
	for _, l := range img.labels {
		symIdx = binary.LittleEndian.AppendUint64(symIdx, off)
		symData = append(symData, l...)
		off += uint64(len(l))
	}
	symIdx = binary.LittleEndian.AppendUint64(symIdx, off)

	var post, genIdx, genData []byte
	if img.generic() {
		genIdx = make([]byte, 0, 8*(len(img.gen)+1))
		goff := uint64(0)
		for _, r := range img.gen {
			genIdx = binary.LittleEndian.AppendUint64(genIdx, goff)
			genData = binary.LittleEndian.AppendUint32(genData, uint32(len(r.a)))
			genData = binary.LittleEndian.AppendUint32(genData, uint32(len(r.b)))
			genData = binary.LittleEndian.AppendUint64(genData, uint64(int64(r.d)))
			genData = binary.LittleEndian.AppendUint64(genData, uint64(r.n))
			genData = append(genData, r.a...)
			genData = append(genData, r.b...)
			goff = uint64(len(genData))
		}
		genIdx = binary.LittleEndian.AppendUint64(genIdx, goff)
	} else {
		post = make([]byte, 0, v4PostRecLen*len(img.post))
		for _, p := range img.post {
			post = binary.LittleEndian.AppendUint64(post, uint64(p.key))
			post = binary.LittleEndian.AppendUint64(post, uint64(p.n))
		}
	}
	perm := make([]byte, 0, 4*len(img.perm))
	for _, p := range img.perm {
		perm = binary.LittleEndian.AppendUint32(perm, p)
	}

	// Assemble: header placeholder (plus the per-tree descriptor when the
	// image has one), then the 8-aligned sections.
	hdrLen := v4HeaderLen
	if img.treeSecs != nil {
		hdrLen += v4TreeDescLen
	}
	buf := make([]byte, hdrLen, hdrLen+len(symIdx)+len(symData)+len(post)+len(genIdx)+len(genData)+len(perm)+64)
	place := func(section []byte) uint64 {
		buf = align8(buf)
		at := uint64(len(buf))
		buf = append(buf, section...)
		return at
	}
	symIdxOff := place(symIdx)
	symDataOff := place(symData)
	postOff := place(post)
	genIdxOff := place(genIdx)
	genDataOff := place(genData)
	permOff := place(perm)

	le := binary.LittleEndian
	copy(buf, magicV4)
	var flags uint64
	if img.opts.IgnoreDist {
		flags |= v4FlagIgnoreDist
	}
	if img.generic() {
		flags |= v4FlagGeneric
	}
	if img.treeSecs != nil {
		flags |= v4FlagTrees
		for i, sec := range img.treeSecs {
			off := place(sec)
			le.PutUint64(buf[v4TreeIdxOff+8*i:], off)
		}
		le.PutUint64(buf[v4TreeNameLen:], uint64(len(img.treeSecs[1])))
	}
	le.PutUint64(buf[v4HdrFlags:], flags)
	le.PutUint64(buf[v4HdrMaxDist:], uint64(int64(img.opts.MaxDist)))
	le.PutUint64(buf[v4HdrMinOccur:], uint64(int64(img.opts.MinOccur)))
	le.PutUint64(buf[v4HdrMinSup:], uint64(int64(img.opts.MinSup)))
	le.PutUint64(buf[v4HdrTrees:], uint64(int64(img.trees)))
	le.PutUint64(buf[v4HdrItems:], uint64(img.items))
	le.PutUint64(buf[v4HdrSymCount:], uint64(len(img.labels)))
	le.PutUint64(buf[v4HdrSymIdxOff:], symIdxOff)
	le.PutUint64(buf[v4HdrSymDataOff:], symDataOff)
	le.PutUint64(buf[v4HdrSymDataLen:], uint64(len(symData)))
	le.PutUint64(buf[v4HdrPostCount:], uint64(len(img.post)))
	le.PutUint64(buf[v4HdrPostOff:], postOff)
	le.PutUint64(buf[v4HdrGenCount:], uint64(len(img.gen)))
	le.PutUint64(buf[v4HdrGenIdxOff:], genIdxOff)
	le.PutUint64(buf[v4HdrGenDataOff:], genDataOff)
	le.PutUint64(buf[v4HdrGenDataLen:], uint64(len(genData)))
	le.PutUint64(buf[v4HdrPermOff:], permOff)
	le.PutUint64(buf[v4HdrFileSize:], uint64(len(buf)))
	le.PutUint32(buf[v4HdrPayloadCRC:], crc32.Checksum(buf[v4HeaderLen:], v4CRCTable))
	le.PutUint32(buf[v4HdrHeaderCRC:], crc32.Checksum(buf[:v4HdrHeaderCRC], v4CRCTable))
	return buf
}

// CompactIndexV4 writes a built (or loaded) index as a v4 file at dst,
// durably via AtomicWrite; it is what `cousindex build -o` writes. The
// file keeps the per-tree item sets, so it answers every query the
// index does.
func CompactIndexV4(dst string, ix *Index) error {
	img, err := imageFromIndex(ix)
	if err != nil {
		return err
	}
	return writeV4(dst, img.appendV4())
}

// CompactShardV4 compacts a support shard into a v4 file at dst,
// written durably via AtomicWrite.
func CompactShardV4(dst string, sh *core.SupportShard) error {
	img, err := imageFromSnapshot(sh.Snapshot())
	if err != nil {
		return err
	}
	return writeV4(dst, img.appendV4())
}

func writeV4(dst string, buf []byte) error {
	return AtomicWrite(dst, func(w io.Writer) error {
		_, err := w.Write(buf)
		return err
	})
}

// CompactV4 converts any store file — a v1/v2 index, a v3 shard
// checkpoint, or a v4 file, validated and copied verbatim — into the v4
// layout at dst. It is the one reader of the older formats a query can
// need: every query path opens v4 only. Postings are sorted on flat
// fixed-width slices, so compaction memory is bounded by the distinct
// support entries, the label table and the source's own per-tree items.
// The write goes through AtomicWrite, so a crash or torn write at any
// point leaves dst's previous contents intact and never touches the
// source.
func CompactV4(dst string, src io.Reader) error {
	buf, err := readV4Image(src)
	if err != nil {
		return err
	}
	return writeV4(dst, buf)
}

// readV4Image returns the validated v4 image of any store file.
func readV4Image(src io.Reader) ([]byte, error) {
	br := bufio.NewReader(src)
	head, err := br.Peek(len(magicV4))
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadMagic, err)
	}
	var raw []byte
	switch string(head) {
	case magicV4:
		if raw, err = io.ReadAll(br); err != nil {
			return nil, fmt.Errorf("store: read v4: %w", err)
		}
	case magicV3:
		sh, err := LoadShard(br)
		if err != nil {
			return nil, err
		}
		img, err := imageFromSnapshot(sh.Snapshot())
		if err != nil {
			return nil, err
		}
		raw = img.appendV4()
	default:
		ix, err := Load(br)
		if err != nil {
			return nil, err
		}
		img, err := imageFromIndex(ix)
		if err != nil {
			return nil, err
		}
		raw = img.appendV4()
	}
	if _, err := OpenMappedBytes(raw); err != nil {
		return nil, err
	}
	return raw, nil
}

// Mapped is a v4 file opened for in-place querying: every accessor
// reads the underlying bytes directly (mmap'd by OpenMapped, or any
// in-memory byte slice via OpenMappedBytes) and the support lookups are
// allocation-free binary searches. A Mapped is immutable and safe for
// any number of concurrent readers. Close unmaps the file; no accessor
// may be called afterwards.
type Mapped struct {
	data  []byte
	unmap func() error

	opts    core.ForestOptions
	trees   int
	items   int64
	generic bool

	symCount int
	symIdx   []byte // (symCount+1) × u64
	symData  []byte

	postCount int
	post      []byte // postCount × v4PostRecLen

	genCount int
	genIdx   []byte // (genCount+1) × u64
	genData  []byte

	perm []byte // recCount × u32

	// The per-tree section; treeIdx is nil when the file has none.
	treeIdx   []byte // (trees+1) × v4TreeRecLen
	treeNames []byte
	treeItems []byte // items × v4TreeItemLen
	treeOrder []byte // trees × u32
}

func v4Corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: v4: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// errNotV4 reports that the file named name does not start with the v4
// magic. Older store files are converted once, by `cousindex compact`.
func errNotV4(name string) error {
	return fmt.Errorf("%w: %s is not a v4 file; convert an older treemine index or shard with `cousindex compact -i %s -o %s.v4`", ErrBadMagic, name, name, name)
}

// section bounds-checks one header-described region of data and
// returns it.
func v4Section(data []byte, off, length uint64, name string) ([]byte, error) {
	size := uint64(len(data))
	if off > size || length > size-off {
		return nil, v4Corrupt("%s section [%d, %d+%d) outside file of %d bytes", name, off, off, length, size)
	}
	return data[off : off+length], nil
}

// OpenMappedBytes validates a complete v4 byte image and returns the
// queryable view over it. Every structural invariant the binary
// searches rely on is checked here — truncated headers, checksum
// mismatches, unsorted postings or labels, out-of-bounds string
// offsets, and non-permutation perm sections all error out cleanly.
func OpenMappedBytes(data []byte) (*Mapped, error) {
	if !bytes.HasPrefix(data, []byte(magicV4)) {
		return nil, errNotV4("F")
	}
	if len(data) < v4HeaderLen {
		return nil, fmt.Errorf("%w: v4 header truncated (%d bytes)", ErrBadMagic, len(data))
	}
	le := binary.LittleEndian
	if got, want := crc32.Checksum(data[:v4HdrHeaderCRC], v4CRCTable), le.Uint32(data[v4HdrHeaderCRC:]); got != want {
		return nil, v4Corrupt("header checksum mismatch (%08x, want %08x)", got, want)
	}
	if fileSize := le.Uint64(data[v4HdrFileSize:]); fileSize != uint64(len(data)) {
		return nil, v4Corrupt("file size %d in header, %d on disk", fileSize, len(data))
	}
	if got, want := crc32.Checksum(data[v4HeaderLen:], v4CRCTable), le.Uint32(data[v4HdrPayloadCRC:]); got != want {
		return nil, v4Corrupt("payload checksum mismatch (%08x, want %08x)", got, want)
	}

	flags := le.Uint64(data[v4HdrFlags:])
	if flags&^uint64(v4FlagIgnoreDist|v4FlagGeneric|v4FlagTrees) != 0 {
		return nil, v4Corrupt("unknown flags %#x", flags)
	}
	m := &Mapped{
		data:    data,
		generic: flags&v4FlagGeneric != 0,
		opts: core.ForestOptions{
			Options: core.Options{
				MaxDist:  core.Dist(int64(le.Uint64(data[v4HdrMaxDist:]))),
				MinOccur: int(int64(le.Uint64(data[v4HdrMinOccur:]))),
			},
			MinSup:     int(int64(le.Uint64(data[v4HdrMinSup:]))),
			IgnoreDist: flags&v4FlagIgnoreDist != 0,
		},
		trees: int(int64(le.Uint64(data[v4HdrTrees:]))),
		items: int64(le.Uint64(data[v4HdrItems:])),
	}
	if m.trees < 0 || m.items < 0 || m.opts.MaxDist < 0 || m.opts.MinOccur < 0 || m.opts.MinSup < 0 {
		return nil, v4Corrupt("negative header field (trees %d, items %d, opts %+v)", m.trees, m.items, m.opts)
	}
	if wantGeneric := m.opts.MaxDist > core.MaxPackedDist; wantGeneric != m.generic {
		return nil, v4Corrupt("generic flag %v inconsistent with maxdist %s", m.generic, m.opts.MaxDist)
	}

	// Symbol table: offset index plus string data, labels sorted strictly
	// ascending so lookup can binary-search.
	symCount := le.Uint64(data[v4HdrSymCount:])
	if symCount > uint64(core.MaxSymbols) || symCount > uint64(len(data))/8 {
		return nil, v4Corrupt("symbol count %d out of range", symCount)
	}
	m.symCount = int(symCount)
	var err error
	if m.symIdx, err = v4Section(data, le.Uint64(data[v4HdrSymIdxOff:]), (symCount+1)*8, "symbol index"); err != nil {
		return nil, err
	}
	symDataLen := le.Uint64(data[v4HdrSymDataLen:])
	if m.symData, err = v4Section(data, le.Uint64(data[v4HdrSymDataOff:]), symDataLen, "symbol data"); err != nil {
		return nil, err
	}
	prevOff := uint64(0)
	var prevLabel []byte
	for i := 0; i <= m.symCount; i++ {
		off := le.Uint64(m.symIdx[i*8:])
		if off < prevOff || off > symDataLen {
			return nil, v4Corrupt("symbol offset %d at #%d out of bounds (prev %d, data %d)", off, i, prevOff, symDataLen)
		}
		if i > 0 {
			label := m.symData[prevOff:off]
			if prevLabel != nil && bytes.Compare(prevLabel, label) >= 0 {
				return nil, v4Corrupt("symbol table not strictly sorted at #%d", i-1)
			}
			prevLabel = label
		}
		prevOff = off
	}
	if m.symCount >= 0 && le.Uint64(m.symIdx[m.symCount*8:]) != symDataLen {
		return nil, v4Corrupt("symbol index does not span the symbol data")
	}

	// Record section: exactly one of packed postings or generic records.
	postCount := le.Uint64(data[v4HdrPostCount:])
	genCount := le.Uint64(data[v4HdrGenCount:])
	if postCount > uint64(len(data))/v4PostRecLen || genCount > uint64(len(data))/8 {
		return nil, v4Corrupt("record counts out of range (post %d, generic %d)", postCount, genCount)
	}
	if m.generic && postCount != 0 || !m.generic && genCount != 0 {
		return nil, v4Corrupt("both record sections populated (post %d, generic %d, generic flag %v)", postCount, genCount, m.generic)
	}
	m.postCount, m.genCount = int(postCount), int(genCount)
	if m.post, err = v4Section(data, le.Uint64(data[v4HdrPostOff:]), postCount*v4PostRecLen, "postings"); err != nil {
		return nil, err
	}
	// A generic section always indexes its end offset, even with no
	// records; a packed file carries no generic index at all, and no
	// generic data.
	genIdxLen, genDataLen := (genCount+1)*8, le.Uint64(data[v4HdrGenDataLen:])
	if !m.generic {
		if genDataLen != 0 {
			return nil, v4Corrupt("packed file with %d bytes of generic data", genDataLen)
		}
		genIdxLen = 0
	}
	if m.genIdx, err = v4Section(data, le.Uint64(data[v4HdrGenIdxOff:]), genIdxLen, "generic index"); err != nil {
		return nil, err
	}
	if m.genData, err = v4Section(data, le.Uint64(data[v4HdrGenDataOff:]), genDataLen, "generic data"); err != nil {
		return nil, err
	}
	if err := m.validateRecords(); err != nil {
		return nil, err
	}

	recCount := uint64(m.Len())
	if m.perm, err = v4Section(data, le.Uint64(data[v4HdrPermOff:]), recCount*4, "permutation"); err != nil {
		return nil, err
	}
	if err := m.validatePerm(); err != nil {
		return nil, err
	}
	if flags&v4FlagTrees != 0 {
		if err := m.openTrees(); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// openTrees bounds-checks the per-tree sections named by the descriptor
// and validates them: monotone offsets that span their sections, record
// references below Len and strictly ascending within each tree, positive
// occurrence counts summing to the header's items, and a name order
// that is a true permutation sorted by (name, tree).
func (m *Mapped) openTrees() error {
	data, le := m.data, binary.LittleEndian
	if len(data) < v4HeaderLen+v4TreeDescLen {
		return v4Corrupt("per-tree descriptor truncated")
	}
	trees, items := uint64(m.trees), uint64(m.items)
	if trees > uint64(len(data))/v4TreeRecLen || items > uint64(len(data))/v4TreeItemLen {
		return v4Corrupt("per-tree counts out of range (trees %d, items %d)", trees, items)
	}
	nameLen := le.Uint64(data[v4TreeNameLen:])
	var err error
	if m.treeIdx, err = v4Section(data, le.Uint64(data[v4TreeIdxOff:]), (trees+1)*v4TreeRecLen, "tree index"); err != nil {
		return err
	}
	if m.treeNames, err = v4Section(data, le.Uint64(data[v4TreeNameOff:]), nameLen, "tree names"); err != nil {
		return err
	}
	if m.treeItems, err = v4Section(data, le.Uint64(data[v4TreeItemsOff:]), items*v4TreeItemLen, "tree items"); err != nil {
		return err
	}
	if m.treeOrder, err = v4Section(data, le.Uint64(data[v4TreeOrderOff:]), trees*4, "tree order"); err != nil {
		return err
	}
	var prevName, prevItem uint64
	for t := 0; t <= m.trees; t++ {
		e := m.treeIdx[t*v4TreeRecLen:]
		nameOff, itemOff, nodes := le.Uint64(e), le.Uint64(e[8:]), le.Uint64(e[16:])
		if nameOff < prevName || nameOff > nameLen || itemOff < prevItem || itemOff > items || nodes > math.MaxInt64 || t == 0 && nameOff|itemOff != 0 {
			return v4Corrupt("tree index entry #%d (names %d, items %d, nodes %d) out of bounds", t, nameOff, itemOff, nodes)
		}
		for i := prevItem; i < itemOff; i++ {
			rec, occur := le.Uint32(m.treeItems[i*v4TreeItemLen:]), le.Uint32(m.treeItems[i*v4TreeItemLen+4:])
			if int64(rec) >= int64(m.Len()) || i > prevItem && rec <= le.Uint32(m.treeItems[(i-1)*v4TreeItemLen:]) || occur < 1 {
				return v4Corrupt("tree #%d item %d (record %d, occur %d) invalid", t-1, i, rec, occur)
			}
		}
		prevName, prevItem = nameOff, itemOff
	}
	if prevName != nameLen || prevItem != items {
		return v4Corrupt("tree index does not span the tree sections")
	}
	seen := make([]uint64, (m.trees+63)/64)
	for i := 0; i < m.trees; i++ {
		t := int(le.Uint32(m.treeOrder[i*4:]))
		if t >= m.trees || seen[t/64]&(1<<(t%64)) != 0 {
			return v4Corrupt("tree order entry #%d (tree %d) is not a permutation", i, t)
		}
		seen[t/64] |= 1 << (t % 64)
		if i > 0 {
			p := int(le.Uint32(m.treeOrder[(i-1)*4:]))
			if c := bytes.Compare(m.treeNameBytes(p), m.treeNameBytes(t)); c > 0 || c == 0 && p > t {
				return v4Corrupt("tree order not sorted at #%d", i)
			}
		}
	}
	return nil
}

// validateRecords checks the record section invariants: strictly
// ascending keys (what binary search needs), positive counts, symbol
// references within the table, and distances consistent with the
// header options — the same rules core.RestoreShard enforces on v3.
func (m *Mapped) validateRecords() error {
	if m.generic {
		le := binary.LittleEndian
		prevEnd := uint64(0)
		genDataLen := uint64(len(m.genData))
		var pa, pb []byte
		var pd core.Dist
		for i := 0; i < m.genCount; i++ {
			start, end := le.Uint64(m.genIdx[i*8:]), le.Uint64(m.genIdx[(i+1)*8:])
			if start != prevEnd || end < start || end > genDataLen || end-start < v4GenPreludeLen {
				return v4Corrupt("generic record #%d spans [%d, %d) in data of %d", i, start, end, genDataLen)
			}
			rec := m.genData[start:end]
			lenA, lenB := uint64(le.Uint32(rec)), uint64(le.Uint32(rec[4:]))
			if v4GenPreludeLen+lenA+lenB != end-start {
				return v4Corrupt("generic record #%d length mismatch (%d + %d + %d != %d)", i, v4GenPreludeLen, lenA, lenB, end-start)
			}
			d := core.Dist(int64(le.Uint64(rec[8:])))
			n := int64(le.Uint64(rec[16:]))
			a := rec[v4GenPreludeLen : v4GenPreludeLen+lenA]
			b := rec[v4GenPreludeLen+lenA:]
			if n < 1 {
				return v4Corrupt("generic record #%d has non-positive count %d", i, n)
			}
			if bytes.Compare(a, b) > 0 {
				return v4Corrupt("generic record #%d not canonical (A > B)", i)
			}
			if err := m.checkDist(d); err != nil {
				return fmt.Errorf("%w (generic record #%d)", err, i)
			}
			if i > 0 {
				if c := bytes.Compare(pa, a); c > 0 || c == 0 && (bytes.Compare(pb, b) > 0 || bytes.Equal(pb, b) && pd >= d) {
					return v4Corrupt("generic records not strictly sorted at #%d", i)
				}
			}
			pa, pb, pd = a, b, d
			prevEnd = end
		}
		if m.genCount >= 0 && prevEnd != genDataLen {
			return v4Corrupt("generic index does not span the generic data")
		}
		return nil
	}
	le := binary.LittleEndian
	var prev uint64
	for i := 0; i < m.postCount; i++ {
		key := le.Uint64(m.post[i*v4PostRecLen:])
		n := int64(le.Uint64(m.post[i*v4PostRecLen+8:]))
		if i > 0 && key <= prev {
			return v4Corrupt("postings not strictly sorted at #%d", i)
		}
		prev = key
		if n < 1 {
			return v4Corrupt("posting #%d has non-positive count %d", i, n)
		}
		ik := core.IKey(key)
		a, b := ik.Syms()
		if int(a) >= m.symCount || int(b) >= m.symCount {
			return v4Corrupt("posting #%d references symbol out of range (%d, %d of %d)", i, a, b, m.symCount)
		}
		if err := m.checkDist(ik.Dist()); err != nil {
			return fmt.Errorf("%w (posting #%d)", err, i)
		}
	}
	return nil
}

func (m *Mapped) checkDist(d core.Dist) error {
	if m.opts.IgnoreDist != (d == core.DistWild) {
		return v4Corrupt("distance %s inconsistent with IgnoreDist=%v", d, m.opts.IgnoreDist)
	}
	if !d.IsWild() && d > m.opts.MaxDist {
		return v4Corrupt("distance %s beyond maxdist %s", d, m.opts.MaxDist)
	}
	return nil
}

// validatePerm checks the support-descending section is a true
// permutation of the records with non-increasing counts — what lets
// frequent listings early-exit at the minsup cutoff.
func (m *Mapped) validatePerm() error {
	n := m.Len()
	seen := make([]uint64, (n+63)/64)
	prev := int64(math.MaxInt64)
	for i := 0; i < n; i++ {
		rec := int(binary.LittleEndian.Uint32(m.perm[i*4:]))
		if rec >= n {
			return v4Corrupt("permutation entry #%d references record %d of %d", i, rec, n)
		}
		if seen[rec/64]&(1<<(rec%64)) != 0 {
			return v4Corrupt("permutation repeats record %d", rec)
		}
		seen[rec/64] |= 1 << (rec % 64)
		if s := m.SupportAt(rec); s > prev {
			return v4Corrupt("permutation support increases at #%d (%d after %d)", i, s, prev)
		} else {
			prev = s
		}
	}
	return nil
}

// OpenMapped memory-maps the v4 file at path read-only and validates it
// (header and payload checksums, every structural invariant). The
// returned Mapped serves queries directly from the page cache: nothing
// is decoded, resident memory stays at whatever the kernel pages in,
// and several processes serving the same file share one copy.
func OpenMapped(path string) (*Mapped, error) {
	if err := faults.Hit(faults.StoreMmap); err != nil {
		return nil, fmt.Errorf("store: mmap %s: %w", path, err)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size() < int64(len(magicV4)) {
		return nil, errNotV4(path)
	}
	if st.Size() > math.MaxInt {
		return nil, fmt.Errorf("store: mmap %s: file too large (%d bytes)", path, st.Size())
	}
	data, unmap, err := mmapFile(f, st.Size())
	if err != nil {
		return nil, fmt.Errorf("store: mmap %s: %w", path, err)
	}
	if !bytes.HasPrefix(data, []byte(magicV4)) {
		unmap()
		return nil, errNotV4(path)
	}
	m, err := OpenMappedBytes(data)
	if err != nil {
		unmap()
		return nil, err
	}
	m.unmap = unmap
	return m, nil
}

// Close releases the mapping (a no-op for OpenMappedBytes views). No
// accessor may be used after Close.
func (m *Mapped) Close() error {
	if m.unmap == nil {
		return nil
	}
	unmap := m.unmap
	m.unmap = nil
	m.data, m.symIdx, m.symData, m.post, m.genIdx, m.genData, m.perm = nil, nil, nil, nil, nil, nil, nil
	m.treeIdx, m.treeNames, m.treeItems, m.treeOrder = nil, nil, nil, nil
	return unmap()
}

// Options returns the mining options recorded in the header. Files
// written from an index carry MinSup 1 and IgnoreDist false.
func (m *Mapped) Options() core.ForestOptions { return m.opts }

// Trees returns the number of trees the compacted source covered.
func (m *Mapped) Trees() int { return m.trees }

// Items returns the source's per-tree item total (0 for shard sources)
// — the Stats quantity, carried through compaction.
func (m *Mapped) Items() int64 { return m.items }

// Generic reports whether the file uses the string-keyed section
// (source mined past core.MaxPackedDist).
func (m *Mapped) Generic() bool { return m.generic }

// Len returns the number of support records.
func (m *Mapped) Len() int {
	if m.generic {
		return m.genCount
	}
	return m.postCount
}

// Size returns the file image size in bytes.
func (m *Mapped) Size() int { return len(m.data) }

// NumSymbols returns the label-table size.
func (m *Mapped) NumSymbols() int { return m.symCount }

// symbolBytes returns label i's bytes without copying.
func (m *Mapped) symbolBytes(i int) []byte {
	le := binary.LittleEndian
	return m.symData[le.Uint64(m.symIdx[i*8:]):le.Uint64(m.symIdx[(i+1)*8:])]
}

// Symbol returns label i (labels are sorted ascending; IDs are ranks).
func (m *Mapped) Symbol(i int) string { return string(m.symbolBytes(i)) }

// cmpBytesString is bytes.Compare against a string without converting
// either side — the allocation-free core of every lookup.
func cmpBytesString(b []byte, s string) int {
	n := len(b)
	if len(s) < n {
		n = len(s)
	}
	for i := 0; i < n; i++ {
		if b[i] != s[i] {
			if b[i] < s[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(b) < len(s):
		return -1
	case len(b) > len(s):
		return 1
	}
	return 0
}

// LookupSymbol binary-searches the sorted label table. It allocates
// nothing.
func (m *Mapped) LookupSymbol(label string) (uint32, bool) {
	lo, hi := 0, m.symCount
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cmpBytesString(m.symbolBytes(mid), label) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < m.symCount && cmpBytesString(m.symbolBytes(lo), label) == 0 {
		return uint32(lo), true
	}
	return 0, false
}

// postingAt decodes packed record i.
func (m *Mapped) postingAt(i int) (core.IKey, int64) {
	le := binary.LittleEndian
	return core.IKey(le.Uint64(m.post[i*v4PostRecLen:])), int64(le.Uint64(m.post[i*v4PostRecLen+8:]))
}

// genAt decodes generic record i into its byte views (no copies).
func (m *Mapped) genAt(i int) (a, b []byte, d core.Dist, n int64) {
	le := binary.LittleEndian
	rec := m.genData[le.Uint64(m.genIdx[i*8:]):le.Uint64(m.genIdx[(i+1)*8:])]
	lenA := uint64(le.Uint32(rec))
	d = core.Dist(int64(le.Uint64(rec[8:])))
	n = int64(le.Uint64(rec[16:]))
	a = rec[v4GenPreludeLen : v4GenPreludeLen+lenA]
	b = rec[v4GenPreludeLen+lenA:]
	return a, b, d, n
}

// Support returns the recorded count for the label pair at distance d
// (0 when absent), by binary search directly on the mapped bytes with
// zero allocation. It answers exactly what the file holds: a concrete d
// finds nothing in an IgnoreDist file, DistWild nothing in a
// distance-keyed one, and any other d outside [0, MaxDist] nothing at
// all. Callers own the capability rules, as internal/serve.Backend does.
func (m *Mapped) Support(l1, l2 string, d core.Dist) int64 {
	if d.IsWild() != m.opts.IgnoreDist {
		return 0
	}
	if lo, hi := m.Records(l1, l2, d); lo < hi {
		return m.SupportAt(lo)
	}
	return 0
}

// Records returns the record range [lo, hi) of the label pair: the one
// record at distance d, or every record of the pair when d is DistWild.
// A d that is neither DistWild nor within [0, MaxDist] has no records —
// the packed key's 4-bit distance field would otherwise carry into the
// label bits and name another pair.
func (m *Mapped) Records(l1, l2 string, d core.Dist) (lo, hi int) {
	if d != core.DistWild && (d < 0 || d > m.opts.MaxDist) {
		return 0, 0
	}
	if l2 < l1 {
		l1, l2 = l2, l1
	}
	if m.generic {
		if d.IsWild() {
			return m.genSearch(l1, l2, math.MinInt, false), m.genSearch(l1, l2, math.MaxInt, true)
		}
		lo = m.genSearch(l1, l2, d, false)
		if lo < m.genCount {
			if a, b, rd, _ := m.genAt(lo); rd == d && cmpBytesString(a, l1) == 0 && cmpBytesString(b, l2) == 0 {
				return lo, lo + 1
			}
		}
		return 0, 0
	}
	ra, ok1 := m.LookupSymbol(l1)
	rb, ok2 := m.LookupSymbol(l2)
	if !ok1 || !ok2 {
		return 0, 0
	}
	if d.IsWild() {
		// Every distance of the pair shares the key's label bits, from
		// the wildcard key up to the key at MaxPackedDist.
		lo = m.postSearch(uint64(core.NewIKey(ra, rb, core.DistWild)))
		hi = m.postCount
		if last := uint64(core.NewIKey(ra, rb, core.MaxPackedDist)); last < math.MaxUint64 {
			hi = m.postSearch(last + 1)
		}
		return lo, hi
	}
	want := uint64(core.NewIKey(ra, rb, d))
	if lo = m.postSearch(want); lo < m.postCount && binary.LittleEndian.Uint64(m.post[lo*v4PostRecLen:]) == want {
		return lo, lo + 1
	}
	return 0, 0
}

// postSearch returns the first packed record whose key is ≥ want.
func (m *Mapped) postSearch(want uint64) int {
	le := binary.LittleEndian
	lo, hi := 0, m.postCount
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if le.Uint64(m.post[mid*v4PostRecLen:]) < want {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// genSearch returns the first generic record whose (A, B, D) is ≥
// (l1, l2, d) — or, with past set, > it.
func (m *Mapped) genSearch(l1, l2 string, d core.Dist, past bool) int {
	lo, hi := 0, m.genCount
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		a, b, rd, _ := m.genAt(mid)
		c := cmpBytesString(a, l1)
		if c == 0 {
			c = cmpBytesString(b, l2)
		}
		if c == 0 {
			switch {
			case rd < d:
				c = -1
			case rd > d:
				c = 1
			}
		}
		if c < 0 || c == 0 && past {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// PermAt returns the record index at position i of the
// support-descending permutation.
func (m *Mapped) PermAt(i int) int {
	return int(binary.LittleEndian.Uint32(m.perm[i*4:]))
}

// SupportAt returns record rec's count.
func (m *Mapped) SupportAt(rec int) int64 {
	if m.generic {
		_, _, _, n := m.genAt(rec)
		return n
	}
	_, n := m.postingAt(rec)
	return n
}

// DistAt returns record rec's distance without materializing labels.
func (m *Mapped) DistAt(rec int) core.Dist {
	if m.generic {
		_, _, d, _ := m.genAt(rec)
		return d
	}
	k, _ := m.postingAt(rec)
	return k.Dist()
}

// KeyAt returns packed record rec's key: an IKey over the file's label
// ranks, so key order is record order. Packed files only.
func (m *Mapped) KeyAt(rec int) core.IKey {
	k, _ := m.postingAt(rec)
	return k
}

// PairAt materializes record rec as a public FrequentPair (this is the
// one accessor that allocates — the label strings of the returned key).
func (m *Mapped) PairAt(rec int) core.FrequentPair {
	if m.generic {
		a, b, d, n := m.genAt(rec)
		return core.FrequentPair{Key: core.Key{A: string(a), B: string(b), D: d}, Support: int(n)}
	}
	k, n := m.postingAt(rec)
	a, b := k.Syms()
	return core.FrequentPair{
		Key:     core.Key{A: m.Symbol(int(a)), B: m.Symbol(int(b)), D: k.Dist()},
		Support: int(n),
	}
}

// Frequent renders the pairs with support ≥ minsup in Finalize(1)
// order by walking the permutation — the convenience form for CLIs;
// the serve backend walks the permutation itself to honor limits and
// request deadlines.
func (m *Mapped) Frequent(minsup int) []core.FrequentPair {
	var out []core.FrequentPair
	for i, n := 0, m.Len(); i < n; i++ {
		rec := m.PermAt(i)
		if m.SupportAt(rec) < int64(minsup) {
			break
		}
		out = append(out, m.PairAt(rec))
	}
	return out
}

// HasTrees reports whether the file carries the per-tree section — the
// item sets tree distance and wildcard support are computed from. Files
// written from an index have it; files compacted from a shard
// hold aggregate counts only. TreeName, TreeNodes, TreeRecords and
// TreeOccur may only be called when it is true.
func (m *Mapped) HasTrees() bool { return m.treeIdx != nil }

// treeEntry decodes tree t's index entry and the next one's offsets.
func (m *Mapped) treeEntry(t int) (nameOff, nameEnd, itemOff, itemEnd uint64, nodes int) {
	le := binary.LittleEndian
	e := m.treeIdx[t*v4TreeRecLen:]
	return le.Uint64(e), le.Uint64(e[v4TreeRecLen:]), le.Uint64(e[8:]), le.Uint64(e[v4TreeRecLen+8:]), int(le.Uint64(e[16:]))
}

func (m *Mapped) treeNameBytes(t int) []byte {
	nameOff, nameEnd, _, _, _ := m.treeEntry(t)
	return m.treeNames[nameOff:nameEnd]
}

// TreeName returns tree t's name (t in [0, Trees()), index order).
func (m *Mapped) TreeName(t int) string { return string(m.treeNameBytes(t)) }

// TreeNodes returns tree t's node count.
func (m *Mapped) TreeNodes(t int) int {
	_, _, _, _, nodes := m.treeEntry(t)
	return nodes
}

// TreeByName returns the first tree named name, by binary search over
// the name-sorted tree order; a file without the per-tree section names
// no trees.
func (m *Mapped) TreeByName(name string) (int, bool) {
	if !m.HasTrees() {
		return 0, false
	}
	lo, hi := 0, m.trees
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cmpBytesString(m.treeNameBytes(m.treeAt(mid)), name) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < m.trees && cmpBytesString(m.treeNameBytes(m.treeAt(lo)), name) == 0 {
		return m.treeAt(lo), true
	}
	return 0, false
}

func (m *Mapped) treeAt(i int) int { return int(binary.LittleEndian.Uint32(m.treeOrder[i*4:])) }

// TreeRecords calls fn with each of tree t's items in ascending record
// order: the record index and the tree's occurrence count of it. The
// records are in key order, so on a packed file (KeyAt) the calls spell
// the tree's item run sorted by rank-coded IKey.
func (m *Mapped) TreeRecords(t int, fn func(rec, occur int)) {
	le := binary.LittleEndian
	_, _, itemOff, itemEnd, _ := m.treeEntry(t)
	for it := m.treeItems[itemOff*v4TreeItemLen : itemEnd*v4TreeItemLen]; len(it) > 0; it = it[v4TreeItemLen:] {
		fn(int(le.Uint32(it)), int(le.Uint32(it[4:])))
	}
}

// TreeOccur returns tree t's occurrence count of its lowest record in
// [lo, hi), or 0 when it holds none of them. Over a Records range that
// is the tree's count of the pair at one distance, or — for DistWild —
// nonzero exactly when the tree has the pair at any distance.
func (m *Mapped) TreeOccur(t, lo, hi int) int {
	le := binary.LittleEndian
	_, _, a, b, _ := m.treeEntry(t)
	i, j := int(a), int(b)
	for i < j {
		mid := int(uint(i+j) >> 1)
		if int(le.Uint32(m.treeItems[mid*v4TreeItemLen:])) < lo {
			i = mid + 1
		} else {
			j = mid
		}
	}
	if i < int(b) && int(le.Uint32(m.treeItems[i*v4TreeItemLen:])) < hi {
		return int(le.Uint32(m.treeItems[i*v4TreeItemLen+4:]))
	}
	return 0
}
