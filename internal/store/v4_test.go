package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"treemine/internal/core"
	"treemine/internal/faults"
	"treemine/internal/oracle"
	"treemine/internal/tree"
	"treemine/internal/treegen"
)

// compactShardToTemp compacts a shard to a v4 file in a temp dir and
// opens it mapped.
func compactShardToTemp(t *testing.T, sh *core.SupportShard) (*Mapped, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "idx.v4")
	if err := CompactShardV4(path, sh); err != nil {
		t.Fatal(err)
	}
	m, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m, path
}

// TestCompactShardV4RoundTrip: across both keying modes and
// distance-insensitive mining, a shard compacts into a v4 file that
// decodes to the oracle's model of the forest, whose accessors read
// that model (point lookups canonicalize the label order), and whose
// permutation walk lists the oracle's frequent pairs in its order.
func TestCompactShardV4RoundTrip(t *testing.T) {
	forest := shardForest(21, 14, 30)
	for _, tc := range []struct {
		name   string
		maxD   core.Dist
		ignore bool
	}{
		{"packed", core.D(4), false},
		{"generic", core.MaxPackedDist + 3, false},
		{"ignoredist", core.D(4), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := core.ForestOptions{
				Options:    core.Options{MaxDist: tc.maxD, MinOccur: 1},
				MinSup:     2,
				IgnoreDist: tc.ignore,
			}
			m, path := compactShardToTemp(t, mineShard(forest, opts))
			mappedMatches(t, m, checkV4(t, mustRead(t, path), wantV4(forest, nil, opts)))
			for _, minsup := range []int{1, 2, 4} {
				want := corePairs(oracle.Forest(naiveSets(forest, opts.Options), minsup, tc.ignore))
				if got := m.Frequent(minsup); !reflect.DeepEqual(got, want) {
					t.Fatalf("minsup=%d: mapped Frequent diverges from the oracle (%d vs %d pairs)", minsup, len(got), len(want))
				}
			}
			// Absent pairs and unknown labels answer 0, never an error.
			if got := m.Support("zz-not-a-label", "also-absent", core.D(1)); got != 0 {
				t.Fatalf("unknown label support = %d", got)
			}
		})
	}
}

// TestCompactIndexV4RoundTrip: a v1/v2 per-tree index compacts into a
// v4 file that decodes to the oracle's model of the forest, whose
// accessors read that model, and whose frequent listings are the
// oracle's.
func TestCompactIndexV4RoundTrip(t *testing.T) {
	forest := fixtureForest(22, 15)
	opts := core.DefaultOptions()
	ix, err := Build(forest, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "idx.v4")
	if err := CompactIndexV4(path, ix); err != nil {
		t.Fatal(err)
	}
	m, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	mappedMatches(t, m, checkV4(t, mustRead(t, path), wantV4(forest, treeNames(len(forest)), core.ForestOptions{Options: opts, MinSup: 1})))
	for _, minsup := range []int{2, 3} {
		if got, want := m.Frequent(minsup), corePairs(oracle.Forest(naiveSets(forest, opts), minsup, false)); !reflect.DeepEqual(got, want) {
			t.Fatalf("minsup=%d: mapped Frequent diverges from the oracle (%d vs %d pairs)", minsup, len(got), len(want))
		}
	}
}

// TestCompactIndexV4PerTree: a v4 file compacted from an index keeps
// every tree's name, node count and item set, in both keying modes: it
// decodes to the oracle's model, TreeRecords spells each tree's items
// (on a packed file, as a strictly key-ascending run), TreeByName finds
// the first of duplicate names, and Records/TreeOccur reproduce every
// tree's concrete and wildcard occurrences of every pair.
func TestCompactIndexV4PerTree(t *testing.T) {
	forest := fixtureForest(28, 14)
	names := make([]string, len(forest))
	for i := range names {
		names[i] = fmt.Sprintf("t%d", i%9) // t0…t4 repeat
	}
	for _, maxD := range []core.Dist{core.D(2), core.MaxPackedDist + 4} {
		opts := core.Options{MaxDist: maxD, MinOccur: 1}
		ix, err := Build(forest, names, opts)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "idx.v4")
		if err := CompactIndexV4(path, ix); err != nil {
			t.Fatal(err)
		}
		m, err := OpenMapped(path)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		mappedMatches(t, m, checkV4(t, mustRead(t, path), wantV4(forest, names, core.ForestOptions{Options: opts, MinSup: 1})))
		for i, name := range names {
			if !m.Generic() {
				var run []core.IKey
				m.TreeRecords(i, func(rec, _ int) { run = append(run, m.KeyAt(rec)) })
				for j := 1; j < len(run); j++ {
					if run[j-1] >= run[j] {
						t.Fatalf("tree %d: key run not strictly ascending at %d", i, j)
					}
				}
			}
			if got, ok := m.TreeByName(name); !ok || got != slices.Index(names, name) {
				t.Fatalf("TreeByName(%q) = %d, %v; want the first tree of that name", name, got, ok)
			}
		}
		if _, ok := m.TreeByName("no-such-tree"); ok {
			t.Fatal("unknown tree name resolved")
		}
		sets := naiveSets(forest, opts)
		for _, p := range oracle.Records(sets, false) {
			for _, d := range []int{p.Key.D, oracle.Wild} {
				lo, hi := m.Records(p.Key.B, p.Key.A, core.Dist(d))
				hits := 0
				for tr, s := range sets {
					n := m.TreeOccur(tr, lo, hi)
					if d != oracle.Wild && n != s[p.Key] {
						t.Fatalf("TreeOccur(%d, %v) = %d, want %d", tr, p.Key, n, s[p.Key])
					}
					hits += min(n, 1)
				}
				if want := oracle.Support(sets, p.Key.A, p.Key.B, d); hits != want {
					t.Fatalf("%v at %d halves: %d trees, want %d", p.Key, d, hits, want)
				}
			}
		}
	}
}

// TestMappedSupportPastMaxDist: a distance outside [0, MaxDist] has no
// records. On a packed file the key's 4-bit distance field would carry
// d+1 = 17 into the label bits, so Support(a, b, 16) used to read
// (a, b, 0)'s count.
func TestMappedSupportPastMaxDist(t *testing.T) {
	sh, err := core.RestoreShard(core.DefaultForestOptions(), 1, []string{"a", "b"},
		[]core.ShardItem{{A: 0, B: 1, D: core.D(0), N: 7}})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := compactShardToTemp(t, sh)
	if got := m.Support("a", "b", core.D(0)); got != 7 {
		t.Fatalf("Support(a, b, 0) = %d, want 7", got)
	}
	for _, d := range []core.Dist{16, 17, 31, core.MaxPackedDist, -5, core.DistWild} {
		if got := m.Support("a", "b", d); got != 0 {
			t.Errorf("Support(a, b, %d halves) = %d, want 0", d, got)
		}
		if lo, hi := m.Records("a", "b", d); d != core.DistWild && lo != hi {
			t.Errorf("Records(a, b, %d halves) = [%d, %d), want empty", d, lo, hi)
		}
	}
}

// TestCompactV4Streams: CompactV4 accepts every on-disk format — v2
// index (converted to exactly the bytes CompactIndexV4 writes for the
// same trees), v3 shard, v4 itself (validated verbatim copy) — and
// rejects garbage without creating the destination.
func TestCompactV4Streams(t *testing.T) {
	dir := t.TempDir()
	forest := shardForest(23, 10, 25)

	v2 := bytes.NewBuffer(encodeV2(t, forest, core.DefaultOptions()))
	ix, err := Build(forest, nil, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	built := filepath.Join(dir, "built.v4")
	if err := CompactIndexV4(built, ix); err != nil {
		t.Fatal(err)
	}
	var v3 bytes.Buffer
	sh := mineShard(forest, core.DefaultForestOptions())
	if err := SaveShard(&v3, sh); err != nil {
		t.Fatal(err)
	}

	fromV2 := filepath.Join(dir, "from-v2.v4")
	if err := CompactV4(fromV2, bytes.NewReader(v2.Bytes())); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustRead(t, fromV2), mustRead(t, built)) {
		t.Fatal("CompactV4(v2) differs from CompactIndexV4 of the same trees")
	}
	fromV3 := filepath.Join(dir, "from-v3.v4")
	if err := CompactV4(fromV3, bytes.NewReader(v3.Bytes())); err != nil {
		t.Fatal(err)
	}
	// v4 → v4 must be byte-identical.
	raw, err := os.ReadFile(fromV3)
	if err != nil {
		t.Fatal(err)
	}
	fromV4 := filepath.Join(dir, "from-v4.v4")
	if err := CompactV4(fromV4, bytes.NewReader(raw)); err != nil {
		t.Fatal(err)
	}
	copied, err := os.ReadFile(fromV4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, copied) {
		t.Fatal("v4 → v4 compaction is not a verbatim copy")
	}
	// The v3-sourced file answers like the shard.
	m, err := OpenMapped(fromV3)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if want := sh.Finalize(2); !reflect.DeepEqual(m.Frequent(2), want) {
		t.Fatal("CompactV4(v3) diverges from shard Finalize")
	}

	bad := filepath.Join(dir, "bad.v4")
	if err := CompactV4(bad, bytes.NewReader([]byte("NOTANINDEX_AT_ALL"))); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("garbage input error = %v, want ErrBadMagic", err)
	}
	if _, err := os.Stat(bad); !os.IsNotExist(err) {
		t.Fatal("failed compaction created the destination")
	}
}

// corruptAt returns a copy of img with f applied, header CRC refreshed
// (so only the targeted invariant trips, not the checksum).
func corruptAt(img []byte, fixCRCs bool, f func(b []byte)) []byte {
	b := bytes.Clone(img)
	f(b)
	if fixCRCs {
		le := binary.LittleEndian
		le.PutUint32(b[v4HdrPayloadCRC:], crc32.Checksum(b[v4HeaderLen:], v4CRCTable))
		le.PutUint32(b[v4HdrHeaderCRC:], crc32.Checksum(b[:v4HdrHeaderCRC], v4CRCTable))
	}
	return b
}

// TestOpenMappedBytesValidation: every class of corruption the reader
// defends against errors cleanly — wrong magic, truncation, checksum
// mismatches, unsorted sections, out-of-bounds offsets, fake
// permutations, and each per-tree invariant — and never panics. The
// CRCs are refreshed, so the structural check is what fires.
func TestOpenMappedBytesValidation(t *testing.T) {
	sh := mineShard(shardForest(24, 10, 25), core.DefaultForestOptions())
	path := filepath.Join(t.TempDir(), "idx.v4")
	if err := CompactShardV4(path, sh); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(shardForest(24, 10, 25), nil, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tsrc, err := imageFromIndex(ix)
	if err != nil {
		t.Fatal(err)
	}
	timg := tsrc.appendV4()
	for _, pristine := range [][]byte{img, timg} {
		if _, err := OpenMappedBytes(pristine); err != nil {
			t.Fatalf("pristine image rejected: %v", err)
		}
	}

	le := binary.LittleEndian
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrBadMagic},
		{"short header", img[:v4HeaderLen-1], ErrBadMagic},
		{"wrong magic", corruptAt(img, false, func(b []byte) { b[0] = 'X' }), ErrBadMagic},
		{"header bitflip", corruptAt(img, false, func(b []byte) { b[v4HdrTrees] ^= 0xff }), ErrCorrupt},
		{"payload bitflip", corruptAt(img, false, func(b []byte) { b[len(b)-1] ^= 0x01 }), ErrCorrupt},
		{"truncated payload", img[:len(img)-8], ErrCorrupt},
		{"file size lies", corruptAt(img, true, func(b []byte) {
			le.PutUint64(b[v4HdrFileSize:], uint64(len(b))+64)
		}), ErrCorrupt},
		{"unknown flags", corruptAt(img, true, func(b []byte) {
			le.PutUint64(b[v4HdrFlags:], 1<<7)
		}), ErrCorrupt},
		{"symbol index out of bounds", corruptAt(img, true, func(b []byte) {
			le.PutUint64(b[v4HdrSymIdxOff:], uint64(len(b)))
		}), ErrCorrupt},
		{"symbol count overflow", corruptAt(img, true, func(b []byte) {
			le.PutUint64(b[v4HdrSymCount:], 1<<40)
		}), ErrCorrupt},
		{"string offset past data", corruptAt(img, true, func(b []byte) {
			symIdx := le.Uint64(b[v4HdrSymIdxOff:])
			le.PutUint64(b[symIdx+8:], le.Uint64(b[v4HdrSymDataLen:])+100)
		}), ErrCorrupt},
		{"unsorted symbols", corruptAt(img, true, func(b []byte) {
			// Force the first label above every successor, leaving
			// offsets intact: table no longer sorted.
			symData := le.Uint64(b[v4HdrSymDataOff:])
			b[symData] = 0xff
		}), ErrCorrupt},
		{"unsorted postings", corruptAt(img, true, func(b []byte) {
			post := le.Uint64(b[v4HdrPostOff:])
			// Swap records 0 and 1 wholesale.
			var tmp [v4PostRecLen]byte
			copy(tmp[:], b[post:])
			copy(b[post:], b[post+v4PostRecLen:post+2*v4PostRecLen])
			copy(b[post+v4PostRecLen:], tmp[:])
		}), ErrCorrupt},
		{"zero count posting", corruptAt(img, true, func(b []byte) {
			post := le.Uint64(b[v4HdrPostOff:])
			le.PutUint64(b[post+8:], 0)
		}), ErrCorrupt},
		{"perm out of range", corruptAt(img, true, func(b []byte) {
			perm := le.Uint64(b[v4HdrPermOff:])
			le.PutUint32(b[perm:], uint32(le.Uint64(b[v4HdrPostCount:])))
		}), ErrCorrupt},
		{"perm repeats", corruptAt(img, true, func(b []byte) {
			perm := le.Uint64(b[v4HdrPermOff:])
			copy(b[perm+4:perm+8], b[perm:perm+4])
		}), ErrCorrupt},
		{"generic flag mismatch", corruptAt(img, true, func(b []byte) {
			le.PutUint64(b[v4HdrFlags:], le.Uint64(b[v4HdrFlags:])|v4FlagGeneric)
		}), ErrCorrupt},
		{"trees flag without a per-tree section", corruptAt(img, true, func(b []byte) {
			le.PutUint64(b[v4HdrFlags:], le.Uint64(b[v4HdrFlags:])|v4FlagTrees)
		}), ErrCorrupt},

		// The per-tree section of an index-derived file.
		{"tree index out of bounds", corruptAt(timg, true, func(b []byte) {
			le.PutUint64(b[v4TreeIdxOff:], uint64(len(b)))
		}), ErrCorrupt},
		{"tree names section out of bounds", corruptAt(timg, true, func(b []byte) {
			le.PutUint64(b[v4TreeNameLen:], uint64(len(b)))
		}), ErrCorrupt},
		{"tree name offsets not monotone", corruptAt(timg, true, func(b []byte) {
			idx := le.Uint64(b[v4TreeIdxOff:])
			le.PutUint64(b[idx+2*v4TreeRecLen:], 0)
		}), ErrCorrupt},
		{"tree item offsets not monotone", corruptAt(timg, true, func(b []byte) {
			idx := le.Uint64(b[v4TreeIdxOff:])
			le.PutUint64(b[idx+2*v4TreeRecLen+8:], 0)
		}), ErrCorrupt},
		{"tree index starts past zero", corruptAt(timg, true, func(b []byte) {
			idx := le.Uint64(b[v4TreeIdxOff:])
			le.PutUint64(b[idx+8:], 1)
		}), ErrCorrupt},
		{"tree record out of range", corruptAt(timg, true, func(b []byte) {
			le.PutUint32(b[le.Uint64(b[v4TreeItemsOff:]):], uint32(le.Uint64(b[v4HdrPostCount:])))
		}), ErrCorrupt},
		{"tree records not ascending", corruptAt(timg, true, func(b []byte) {
			items := le.Uint64(b[v4TreeItemsOff:])
			copy(b[items+v4TreeItemLen:items+v4TreeItemLen+4], b[items:items+4])
		}), ErrCorrupt},
		{"zero occurrence count", corruptAt(timg, true, func(b []byte) {
			le.PutUint32(b[le.Uint64(b[v4TreeItemsOff:])+4:], 0)
		}), ErrCorrupt},
		{"item total disagrees with header", corruptAt(timg, true, func(b []byte) {
			le.PutUint64(b[v4HdrItems:], le.Uint64(b[v4HdrItems:])-1)
		}), ErrCorrupt},
		{"tree order repeats", corruptAt(timg, true, func(b []byte) {
			order := le.Uint64(b[v4TreeOrderOff:])
			copy(b[order+4:order+8], b[order:order+4])
		}), ErrCorrupt},
		{"tree order out of range", corruptAt(timg, true, func(b []byte) {
			le.PutUint32(b[le.Uint64(b[v4TreeOrderOff:]):], uint32(le.Uint64(b[v4HdrTrees:])))
		}), ErrCorrupt},
		{"tree order not sorted by name", corruptAt(timg, true, func(b []byte) {
			order := le.Uint64(b[v4TreeOrderOff:])
			last := order + 4*(le.Uint64(b[v4HdrTrees:])-1)
			var tmp [4]byte
			copy(tmp[:], b[order:order+4])
			copy(b[order:order+4], b[last:last+4])
			copy(b[last:last+4], tmp[:])
		}), ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := OpenMappedBytes(tc.data)
			if err == nil {
				t.Fatalf("corrupt image accepted (%d records)", m.Len())
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("error = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestMappedSupportZeroAlloc: the point-lookup path must not allocate —
// the zero-copy contract that keeps mapped query latency flat.
func TestMappedSupportZeroAlloc(t *testing.T) {
	for _, generic := range []bool{false, true} {
		maxD := core.D(4)
		if generic {
			maxD = core.MaxPackedDist + 2
		}
		sh := mineShard(shardForest(25, 10, 30), core.ForestOptions{
			Options: core.Options{MaxDist: maxD, MinOccur: 1},
			MinSup:  1,
		})
		m, _ := compactShardToTemp(t, sh)
		pairs := sh.Finalize(1)
		if len(pairs) == 0 {
			t.Fatal("fixture mined no pairs")
		}
		p := pairs[len(pairs)/2]
		var got int64
		allocs := testing.AllocsPerRun(100, func() {
			got = m.Support(p.Key.A, p.Key.B, p.Key.D)
		})
		if got != int64(p.Support) {
			t.Fatalf("generic=%v: Support = %d, want %d", generic, got, p.Support)
		}
		if allocs != 0 {
			t.Fatalf("generic=%v: Support allocates %.1f per op, want 0", generic, allocs)
		}
	}
}

// TestCompactV4AtomicTornKeepsSource: the chaos acceptance criterion —
// a torn CompactV4 write must leave both the source checkpoint and any
// previous destination intact, and the torn temp file must never
// validate as a v4 index.
func TestCompactV4AtomicTornKeepsSource(t *testing.T) {
	faults.Reset()
	t.Cleanup(faults.Reset)
	dir := t.TempDir()
	src := filepath.Join(dir, "src.v3")
	dst := filepath.Join(dir, "idx.v4")

	old := mineShard(shardForest(26, 8, 25), core.DefaultForestOptions())
	if err := AtomicWrite(src, func(w io.Writer) error { return SaveShard(w, old) }); err != nil {
		t.Fatal(err)
	}
	srcBefore, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	// A previous good v4 at the destination, to prove it isn't shadowed.
	if err := CompactShardV4(dst, old); err != nil {
		t.Fatal(err)
	}
	dstBefore, err := os.ReadFile(dst)
	if err != nil {
		t.Fatal(err)
	}

	compactFromFile := func() error {
		f, err := os.Open(src)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		return CompactV4(dst, f)
	}

	for _, fp := range []string{faults.AtomicTorn, faults.AtomicCrash, faults.AtomicSync} {
		faults.Reset()
		faults.Enable(fp, faults.Spec{Mode: faults.ModeError, Count: 1})
		if err := compactFromFile(); !errors.Is(err, faults.ErrInjected) {
			t.Fatalf("%s: compact error = %v, want injected", fp, err)
		}
		srcAfter, err := os.ReadFile(src)
		if err != nil || !bytes.Equal(srcBefore, srcAfter) {
			t.Fatalf("%s: source checkpoint modified by failed compaction (%v)", fp, err)
		}
		dstAfter, err := os.ReadFile(dst)
		if err != nil || !bytes.Equal(dstBefore, dstAfter) {
			t.Fatalf("%s: previous v4 shadowed by failed compaction (%v)", fp, err)
		}
		if m, err := OpenMapped(dst); err != nil {
			t.Fatalf("%s: previous v4 unreadable after failed compaction: %v", fp, err)
		} else {
			m.Close()
		}
		// A torn temp file must never open as a valid index. (AtomicCrash
		// fires after the durable temp write, so its temp file is whole —
		// only the mid-flush tear leaves a half-written image behind.)
		if fp == faults.AtomicTorn {
			if _, err := os.Stat(dst + ".tmp"); err != nil {
				t.Fatalf("%s: expected a torn temp file: %v", fp, err)
			}
			if _, err := OpenMapped(dst + ".tmp"); err == nil {
				t.Fatalf("%s: torn temp file validated as a v4 index", fp)
			}
		}
	}

	// Disarmed, the same compaction goes through.
	faults.Reset()
	if err := compactFromFile(); err != nil {
		t.Fatal(err)
	}
	m, err := OpenMapped(dst)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if !reflect.DeepEqual(m.Frequent(1), old.Finalize(1)) {
		t.Fatal("recovered compaction diverges from source shard")
	}
}

// TestOpenMappedFailpoint: an armed store/mmap failpoint surfaces as a
// clean open error.
func TestOpenMappedFailpoint(t *testing.T) {
	faults.Reset()
	t.Cleanup(faults.Reset)
	sh := mineShard(shardForest(27, 5, 20), core.DefaultForestOptions())
	path := filepath.Join(t.TempDir(), "idx.v4")
	if err := CompactShardV4(path, sh); err != nil {
		t.Fatal(err)
	}
	faults.Enable(faults.StoreMmap, faults.Spec{Mode: faults.ModeError, Count: 1})
	if _, err := OpenMapped(path); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("armed mmap failpoint: err = %v, want injected", err)
	}
	faults.Reset()
	m, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
}

// TestCompactShardV4SmallSections: shards of 0, 1 and 3 records compact
// to v4 files that open and answer every record, in both keying modes.
// A packed file carries no generic index, so with a permutation of
// under 8 bytes behind it there is nothing where one would sit; and it
// may claim no generic data either.
func TestCompactShardV4SmallSections(t *testing.T) {
	labels := []string{"a", "b", "c"}
	all := []core.ShardItem{
		{A: 0, B: 1, D: core.D(0), N: 2},
		{A: 0, B: 2, D: core.D(1), N: 1},
		{A: 1, B: 2, D: core.D(2), N: 5},
	}
	modes := map[string]core.ForestOptions{
		"packed":  core.DefaultForestOptions(),
		"generic": {Options: core.Options{MaxDist: core.D(20), MinOccur: 1}, MinSup: 1},
	}
	for _, mode := range []string{"packed", "generic"} {
		for _, n := range []int{0, 1, 3} {
			t.Run(fmt.Sprintf("%s/%d", mode, n), func(t *testing.T) {
				sh, err := core.RestoreShard(modes[mode], n, labels, all[:n])
				if err != nil {
					t.Fatal(err)
				}
				m, path := compactShardToTemp(t, sh)
				if m.Len() != n || m.Generic() != (mode == "generic") {
					t.Fatalf("opened %d records (generic %v), want %d", m.Len(), m.Generic(), n)
				}
				for _, it := range all[:n] {
					if got := m.Support(labels[it.A], labels[it.B], it.D); got != it.N {
						t.Fatalf("support(%s, %s, %s) = %d, want %d", labels[it.A], labels[it.B], it.D, got, it.N)
					}
				}
				if got, want := m.Frequent(1), sh.Finalize(1); !reflect.DeepEqual(got, want) {
					t.Fatalf("frequent = %v, want %v", got, want)
				}
				if mode == "packed" {
					img, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					bad := corruptAt(img, true, func(b []byte) { binary.LittleEndian.PutUint64(b[v4HdrGenDataLen:], 1) })
					if _, err := OpenMappedBytes(bad); !errors.Is(err, ErrCorrupt) {
						t.Fatalf("packed file claiming generic data: err = %v, want ErrCorrupt", err)
					}
				}
			})
		}
	}
}

// TestImageFromSnapshotCanonicalLabels: a snapshot's symbol IDs become
// the v4 label ranks unchanged, so a label table that is not sorted and
// unique is refused rather than written with wrong ranks.
func TestImageFromSnapshotCanonicalLabels(t *testing.T) {
	opts := core.DefaultForestOptions()
	items := []core.ShardItem{{A: 0, B: 1, D: core.D(0), N: 2}}
	for _, labels := range [][]string{{"b", "a"}, {"a", "a"}} {
		if _, err := imageFromSnapshot(opts, 1, labels, items); err == nil {
			t.Fatalf("labels %q: accepted a non-canonical table", labels)
		}
	}
	img, err := imageFromSnapshot(opts, 1, []string{"a", "b"}, items)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := img.post[0].key.Syms(); a != 0 || b != 1 {
		t.Fatalf("record ranks (%d, %d), want the snapshot IDs (0, 1)", a, b)
	}
}

// BenchmarkCompactIndexV4 compacts a per-tree index of 200 Table 3
// trees (treegen.Fanout, default options; about 1.06 M per-tree items)
// into a v4 file: every item is counted into its record and mapped to
// it in the per-tree section.
func BenchmarkCompactIndexV4(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	trees := make([]*tree.Tree, 200)
	for i := range trees {
		trees[i] = treegen.Fanout(rng, treegen.DefaultParams())
	}
	ix, err := Build(trees, nil, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "fanout.v4")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh Index each time, as a loaded or built one arrives.
		if err := CompactIndexV4(path, &Index{Options: ix.Options, Entries: ix.Entries}); err != nil {
			b.Fatal(err)
		}
	}
}
