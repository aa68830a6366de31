package store

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"testing/iotest"

	"treemine/internal/core"
)

// perRecordRun is the record-at-a-time run writer the block framing
// replaced, kept as the byte oracle: magic, [header length, header],
// count, records, CRC32-C of everything after the magic.
func perRecordRun(magic string, header []byte, items []core.ShardItem) []byte {
	var body []byte
	if header != nil {
		body = binary.LittleEndian.AppendUint32(body, uint32(len(header)))
		body = append(body, header...)
	}
	body = binary.LittleEndian.AppendUint64(body, uint64(len(items)))
	for _, it := range items {
		var rec [spillRecBytes]byte
		putSpillRec(rec[:], it)
		body = append(body, rec[:]...)
	}
	out := append([]byte(magic), body...)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(body, spillCRCTable))
}

// blockRun writes items through runWriter.
func blockRun(t testing.TB, magic string, header []byte, items []core.ShardItem) []byte {
	t.Helper()
	var buf bytes.Buffer
	rw, err := newRunWriter(&buf, magic, header, uint64(len(items)))
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		if err := rw.write(it); err != nil {
			t.Fatal(err)
		}
	}
	if err := rw.finish(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readRun reads a segment-framed run back to io.EOF and counts its
// records.
func readRun(data []byte) (int, error) {
	return readRunFrom(bytes.NewReader(data))
}

// readRunFrom is readRun over any reader.
func readRunFrom(r io.Reader) (int, error) {
	rr, _, err := newRunReader(r, magicSeg, false)
	if err != nil {
		return 0, err
	}
	for n := 0; ; n++ {
		if _, err := rr.next(); err == io.EOF {
			return n, nil
		} else if err != nil {
			return n, err
		}
	}
}

// blockTestItems returns n distinct records in run order.
func blockTestItems(n int) []core.ShardItem {
	items := make([]core.ShardItem, n)
	for i := range items {
		items[i] = core.ShardItem{A: uint32(i / 64), B: uint32(i % 64), D: core.D(i % 5), N: int64(1 + i%97)}
	}
	return items
}

// TestRunBlockFramingBytes: block-framed runs of every size around the
// writer's and the reader's block edges are byte-identical to record-at-a-time runs and read back
// to the records written, with and without a header.
func TestRunBlockFramingBytes(t *testing.T) {
	const b = runBlockRecs
	rb := readBlockRecs
	for _, n := range []int{0, 1, rb - 1, rb, rb + 1, b - 1, b, b + 1, 3*b + 7} {
		items := blockTestItems(n)
		for _, header := range [][]byte{nil, []byte("header blob")} {
			magic := magicSeg
			if header != nil {
				magic = magicSpill
			}
			got := blockRun(t, magic, header, items)
			if want := perRecordRun(magic, header, items); !bytes.Equal(got, want) {
				t.Fatalf("n=%d header=%v: block-framed bytes differ from record-at-a-time bytes", n, header != nil)
			}
			rr, h, err := newRunReader(bytes.NewReader(got), magic, header != nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(h, header) {
				t.Fatalf("n=%d: header %q, want %q", n, h, header)
			}
			var back []core.ShardItem
			for {
				it, err := rr.next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
				back = append(back, it)
			}
			if !slices.Equal(back, items) {
				t.Fatalf("n=%d: read back %d records, wrote %d (or contents differ)", n, len(back), len(items))
			}
		}
	}
}

// readBlockRecs is how many records runReader peeks per block: what a
// default bufio buffer holds.
var readBlockRecs = bufio.NewReader(nil).Size() / spillRecBytes

// TestRunBlockFramingCorrupt: every way a run can be damaged fails with
// ErrCorrupt and the message record-at-a-time reading gave — a cut at a
// record boundary reads as a clean EOF inside the records, a cut
// mid-record as an unexpected one, wherever the writer's and the
// reader's block edges fall. A read error that is not an EOF reaches
// the caller as it came.
func TestRunBlockFramingCorrupt(t *testing.T) {
	const b = runBlockRecs
	rb := readBlockRecs
	n := 2*b + 3
	run := blockRun(t, magicSeg, nil, blockTestItems(n))
	start := len(magicSeg) + 8 // first record
	recEnd := start + n*spillRecBytes
	prefix := "store: corrupt index: "
	checkErr := func(name string, r io.Reader, want string) {
		t.Helper()
		_, err := readRunFrom(r)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: err = %v, want ErrCorrupt", name, err)
		}
		if err.Error() != prefix+want {
			t.Fatalf("%s: err = %q, want %q", name, err, prefix+want)
		}
	}
	check := func(name string, data []byte, want string) {
		t.Helper()
		checkErr(name, bytes.NewReader(data), want)
	}
	for k := 0; k < n; k++ {
		check(fmt.Sprintf("cut before record %d", k), run[:start+k*spillRecBytes], "truncated records: EOF")
	}
	check("cut before checksum", run[:recEnd], "missing checksum: EOF")
	check("cut inside checksum", run[:recEnd+2], "missing checksum: unexpected EOF")
	edges := []int{0, b - 1, b, b + 1, 2*b - 1, 2 * b, n - 1, rb - 1, rb, rb + 1, 2*rb - 1, 2 * rb}
	for _, k := range edges {
		for off := 1; off < spillRecBytes; off += 4 {
			check(fmt.Sprintf("cut %d bytes into record %d", off, k), run[:start+k*spillRecBytes+off], "truncated records: unexpected EOF")
		}
	}
	for _, size := range []int{b, rb} {
		for blk := 0; blk*size < n; blk++ {
			bad := slices.Clone(run)
			k := blk*size + min(size/2, n-blk*size-1)
			bad[start+k*spillRecBytes+3] ^= 0x10
			check(fmt.Sprintf("flip in %d-record block %d", size, blk), bad, "checksum mismatch")
		}
	}
	bad := slices.Clone(run)
	bad[len(bad)-1] ^= 0x01
	check("flip in checksum", bad, "checksum mismatch")
	check("trailing byte", append(slices.Clone(run), 0), "data past checksum")

	// A device error where the data stops is not a truncation.
	errIO := errors.New("device error")
	failAt := func(cut int) io.Reader {
		return io.MultiReader(bytes.NewReader(run[:cut]), iotest.ErrReader(errIO))
	}
	for _, k := range edges {
		for _, off := range []int{0, 7} {
			name := fmt.Sprintf("read error %d bytes into record %d", off, k)
			checkErr(name, failAt(start+k*spillRecBytes+off), "truncated records: device error")
			if _, err := readRunFrom(failAt(start + k*spillRecBytes + off)); !errors.Is(err, errIO) {
				t.Fatalf("%s: err = %v does not wrap the read error", name, err)
			}
		}
	}
	checkErr("read error at checksum", failAt(recEnd), "missing checksum: device error")
}

// TestRunReaderAllocs: reading a run allocates per reader and per
// block buffer, never per record.
func TestRunReaderAllocs(t *testing.T) {
	run := blockRun(t, magicSeg, nil, blockTestItems(10000))
	allocs := testing.AllocsPerRun(5, func() {
		if n, err := readRun(run); err != nil || n != 10000 {
			t.Fatalf("read %d records: %v", n, err)
		}
	})
	if allocs > 10 {
		t.Fatalf("reading a 10,000-record run made %.0f allocations, want a per-reader constant", allocs)
	}
}

// TestSpillMergeHeapPerSegment: Finish k-way merges every segment at
// once, so what one open segment holds bounds its peak memory. With
// segments as large as a 4,096-entry budget and a fan-in of 200, the
// heap once every reader is open and has produced its first record must
// grow by no more than a buffered reader per segment — never by a
// buffer sized to the segment.
func TestSpillMergeHeapPerSegment(t *testing.T) {
	const segs, perSeg = 200, 4096
	dir := t.TempDir()
	run := blockRun(t, magicSeg, nil, blockTestItems(perSeg))
	a := &SpillAccumulator{dir: dir}
	for i := 0; i < segs; i++ {
		path := filepath.Join(dir, fmt.Sprintf("spill-%04d.seg", i))
		if err := os.WriteFile(path, run, 0o644); err != nil {
			t.Fatal(err)
		}
		a.segs = append(a.segs, path)
	}
	rank := make([]uint32, 64) // identity over blockTestItems' 64 symbols
	for i := range rank {
		rank[i] = uint32(i)
	}
	var before, during runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	stop := errors.New("stop")
	err := a.mergeSegments(rank, func(core.ShardItem) error {
		runtime.GC()
		runtime.ReadMemStats(&during)
		return stop
	})
	if !errors.Is(err, stop) {
		t.Fatalf("merge: %v", err)
	}
	grew := (int64(during.HeapAlloc) - int64(before.HeapAlloc)) / segs
	t.Logf("heap per open segment: %d bytes", grew)
	if grew > 8<<10 {
		t.Fatalf("each open segment holds %d bytes of heap, want at most one bufio buffer plus bookkeeping (8 KiB)", grew)
	}
}

// writeSpilledShard writes a spilled-shard file holding items (sorted,
// distinct, coded against labels) the way SpillAccumulator.Finish does.
func writeSpilledShard(t testing.TB, path string, opts core.ForestOptions, trees int, labels []string, items []core.ShardItem) {
	t.Helper()
	var hbuf bytes.Buffer
	if err := gob.NewEncoder(&hbuf).Encode(spillHeader{Opts: opts, Trees: trees, Labels: labels}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blockRun(t, magicSpill, hbuf.Bytes(), items), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestFoldShardFileTranslatesOnce: a 20,000-record spilled file over
// 5,000 labels — five fold batches sharing one translation — folds to
// the same master, symbol table included, as the v3 Merge path.
func TestFoldShardFileTranslatesOnce(t *testing.T) {
	opts := core.DefaultForestOptions()
	rng := rand.New(rand.NewSource(5))
	labels := make([]string, 5000)
	for i := range labels {
		labels[i] = fmt.Sprintf("taxon-%05d", (i*7919)%5000) // intern order ≠ label order
	}
	seen := map[core.ShardItem]bool{}
	var items []core.ShardItem
	for len(items) < 20000 {
		a, b := uint32(rng.Intn(len(labels))), uint32(rng.Intn(len(labels)))
		if b < a {
			a, b = b, a
		}
		key := core.ShardItem{A: a, B: b, D: core.D(rng.Intn(4))}
		if seen[key] {
			continue
		}
		seen[key] = true
		key.N = 1 + rng.Int63n(50)
		items = append(items, key)
	}
	slices.SortFunc(items, func(x, y core.ShardItem) int {
		return cmp.Or(cmp.Compare(x.A, y.A), cmp.Compare(x.B, y.B), cmp.Compare(x.D, y.D))
	})
	dir := t.TempDir()
	spilled := filepath.Join(dir, "worker.shard")
	writeSpilledShard(t, spilled, opts, 40, labels, items)

	ref, err := core.RestoreShard(opts, 40, labels, items)
	if err != nil {
		t.Fatal(err)
	}
	v3 := filepath.Join(dir, "worker.v3")
	if err := os.WriteFile(v3, shardBytes(t, ref), 0o644); err != nil {
		t.Fatal(err)
	}

	fold := func(path string) *core.SupportShard {
		master := core.NewSupportShard(opts)
		master.AddTree(shardForest(1, 1, 10)[0]) // a master with labels of its own
		trees, err := FoldShardFile(master, path)
		if err != nil {
			t.Fatal(err)
		}
		if trees != 40 {
			t.Fatalf("%s: folded %d trees, want 40", path, trees)
		}
		return master
	}
	got, want := fold(spilled), fold(v3)
	if n, m := len(got.LocalLabels()), len(want.LocalLabels()); n != m || n < len(labels) {
		t.Fatalf("master holds %d symbols after the spilled fold, %d after the v3 merge (file has %d labels)", n, m, len(labels))
	}
	if !bytes.Equal(shardBytes(t, got), shardBytes(t, want)) {
		t.Fatal("spilled fold and v3 merge give different masters")
	}
}
