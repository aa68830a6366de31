package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"treemine/internal/core"
	"treemine/internal/oracle"
)

// FuzzStoreRead feeds arbitrary (truncated, bit-flipped, adversarial)
// bytes into every file loader: Load for v1/v2 index files, LoadShard
// for v3 checkpoints, OpenMappedBytes for v4 and CompactV4's reader,
// which converts all of them. None may ever panic — every failure mode
// must surface as an error — and whatever OpenMappedBytes accepts, or
// the converter produces, internal/oracle's decoder must accept too,
// with every mapped accessor reading what it reads. Seeds include
// genuine v2, v3 and v4 files so the fuzzer starts from deep decode
// paths, plus the checked-in corpus in testdata/fuzz; the genuine v4
// seeds must decode to the oracle's model of their forest.
func FuzzStoreRead(f *testing.F) {
	// Magic headers and near-misses.
	f.Add([]byte{})
	f.Add([]byte("TREEMINEIDX1"))
	f.Add([]byte("TREEMINEIDX2junk"))
	f.Add([]byte("TREEMINEIDX3"))
	f.Add([]byte("TREEMINEIDX3\xff\x00garbage"))
	f.Add([]byte("TREEMINEIDX9whatever"))

	// A genuine v2 index file.
	forest := shardForest(11, 3, 20)
	ix, err := Build(forest, nil, core.DefaultOptions())
	if err != nil {
		f.Fatal(err)
	}
	v2 := encodeV2(f, forest, core.DefaultOptions())
	f.Add(v2)
	f.Add(v2[:len(v2)/2])

	// A genuine v3 shard checkpoint.
	sh := mineShard(forest, core.DefaultForestOptions())
	var v3 bytes.Buffer
	if err := SaveShard(&v3, sh); err != nil {
		f.Fatal(err)
	}
	f.Add(v3.Bytes())
	f.Add(v3.Bytes()[:len(v3.Bytes())-3])

	// A genuine v4 flat image plus near-misses: truncated header,
	// truncated payload, flipped payload byte (checksum mismatch), and a
	// bare magic. The reader must reject all of them with errors.
	opts, trees, labels, items := sh.Snapshot()
	img, err := imageFromSnapshot(opts, trees, labels, items)
	if err != nil {
		f.Fatal(err)
	}
	v4 := img.appendV4()
	checkV4(f, v4, wantV4(forest, nil, core.DefaultForestOptions()))
	f.Add(v4)
	f.Add([]byte("TREEMINEIDX4"))
	f.Add(v4[:v4HeaderLen-2])
	f.Add(v4[:len(v4)-5])
	flipped := bytes.Clone(v4)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)

	// Index-derived v4 images, which carry the per-tree section, plus
	// near-misses that trip its validation.
	seeds := indexV4Seeds(f, ix)
	checkV4(f, seeds[0], wantV4(forest, treeNames(len(forest)), core.ForestOptions{Options: core.DefaultOptions(), MinSup: 1}))
	for _, seed := range seeds {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if ix, err := Load(bytes.NewReader(data)); err == nil && ix == nil {
			t.Fatal("Load returned nil index without error")
		}
		if sh, err := LoadShard(bytes.NewReader(data)); err == nil {
			if sh == nil {
				t.Fatal("LoadShard returned nil shard without error")
			}
			// Whatever decodes must already satisfy the shard
			// invariants; finalizing it must be safe.
			sh.Finalize(1)
		}
		if raw, err := readV4Image(bytes.NewReader(data)); err == nil {
			if _, err := oracle.DecodeV4(raw); err != nil {
				t.Fatalf("CompactV4 produced an image the oracle's decoder rejects: %v", err)
			}
		}
		if m, err := OpenMappedBytes(bytes.Clone(data)); err == nil {
			dec, err := oracle.DecodeV4(data)
			if err != nil {
				t.Fatalf("OpenMappedBytes accepted an image the oracle's decoder rejects: %v", err)
			}
			mappedMatches(t, m, dec)
		}
	})
}

// TestRegenerateV4FuzzCorpus rewrites the checked-in v4 seed corpus
// under testdata/fuzz/FuzzStoreRead. It is a no-op unless
// TREEMINE_WRITE_FUZZ_SEEDS=1 — run it after changing the v4 layout so
// the corpus keeps exercising the deep validation paths: a genuine
// image, a truncated header, a flipped payload byte (checksum
// mismatch), unsorted postings, an out-of-bounds string offset, and an
// index-derived image with and without a broken per-tree section.
func TestRegenerateV4FuzzCorpus(t *testing.T) {
	if os.Getenv("TREEMINE_WRITE_FUZZ_SEEDS") == "" {
		t.Skip("set TREEMINE_WRITE_FUZZ_SEEDS=1 to rewrite the corpus")
	}
	sh := mineShard(shardForest(11, 3, 20), core.DefaultForestOptions())
	opts, trees, labels, items := sh.Snapshot()
	img, err := imageFromSnapshot(opts, trees, labels, items)
	if err != nil {
		t.Fatal(err)
	}
	v4 := img.appendV4()
	le := binary.LittleEndian

	unsorted := bytes.Clone(v4)
	post := le.Uint64(unsorted[v4HdrPostOff:])
	var tmp [v4PostRecLen]byte
	copy(tmp[:], unsorted[post:])
	copy(unsorted[post:], unsorted[post+v4PostRecLen:post+2*v4PostRecLen])
	copy(unsorted[post+v4PostRecLen:], tmp[:])
	fixCRCs(unsorted)

	badOffset := bytes.Clone(v4)
	symIdx := le.Uint64(badOffset[v4HdrSymIdxOff:])
	le.PutUint64(badOffset[symIdx+8:], le.Uint64(badOffset[v4HdrSymDataLen:])+1000)
	fixCRCs(badOffset)

	flipped := bytes.Clone(v4)
	flipped[len(flipped)/2] ^= 0x40

	ix, err := Build(shardForest(11, 3, 20), nil, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	fromIndex := indexV4Seeds(t, ix)

	dir := filepath.Join("testdata", "fuzz", "FuzzStoreRead")
	for name, data := range map[string][]byte{
		"seed-v4-genuine":              v4,
		"seed-v4-short-header":         v4[:v4HeaderLen-2],
		"seed-v4-payload-bitflip":      flipped,
		"seed-v4-unsorted-posts":       unsorted,
		"seed-v4-string-oob":           badOffset,
		"seed-v4-index-genuine":        fromIndex[0],
		"seed-v4-index-record-oob":     fromIndex[1],
		"seed-v4-index-unsorted-names": fromIndex[2],
	} {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// indexV4Seeds returns an index-derived v4 image — one with the per-tree
// section — followed by near-misses: a tree item naming a record past
// the section, and a name order out of sort.
func indexV4Seeds(tb testing.TB, ix *Index) [][]byte {
	img, err := imageFromIndex(ix)
	if err != nil {
		tb.Fatal(err)
	}
	v4 := img.appendV4()
	le := binary.LittleEndian

	badRecord := bytes.Clone(v4)
	le.PutUint32(badRecord[le.Uint64(badRecord[v4TreeItemsOff:]):], uint32(le.Uint64(badRecord[v4HdrPostCount:])))
	fixCRCs(badRecord)

	unsortedNames := bytes.Clone(v4)
	order := le.Uint64(unsortedNames[v4TreeOrderOff:])
	copy(unsortedNames[order:order+4], v4[order+4:order+8])
	copy(unsortedNames[order+4:order+8], v4[order:order+4])
	fixCRCs(unsortedNames)
	return [][]byte{v4, badRecord, unsortedNames}
}

// fixCRCs recomputes both checksums in place so a seed trips a targeted
// structural check rather than the CRC gate.
func fixCRCs(b []byte) {
	le := binary.LittleEndian
	le.PutUint32(b[v4HdrPayloadCRC:], crc32.Checksum(b[v4HeaderLen:], v4CRCTable))
	le.PutUint32(b[v4HdrHeaderCRC:], crc32.Checksum(b[:v4HdrHeaderCRC], v4CRCTable))
}
