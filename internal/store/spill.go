package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"treemine/internal/core"
	"treemine/internal/faults"
)

// Out-of-core shard accumulation (DESIGN.md §51). A fully-resident
// SupportShard grows with the number of distinct cousin pairs, not with
// the corpus — which is usually the win, but on label-rich corpora the
// pair space itself outgrows RAM. The spill machinery bounds the
// resident set: whenever the shard's count map passes a budget, the
// counts are drained (in label order, coded by the shard's own stable
// symbol IDs) to an on-disk spill segment and the map restarts empty.
// Because support is a sum, the multiset union of all segments plus the
// resident tail holds exactly the counts an unbounded shard would — the
// final file is produced by a streaming k-way merge of the sorted runs,
// recoded through the final label ranks and summing duplicate keys, so
// no step ever materializes the full pair set.
//
// Two file formats, both fixed-width little-endian records guarded by
// CRC32-C:
//
//	segment (TREEMINESEG1): count + records — an intermediate sorted
//	run, deleted after the final merge.
//	spilled shard (TREEMINESPL1): gob header (options, tree tally,
//	label table) + merged records — a worker checkpoint equivalent to
//	a v3 shard, but written and read as a stream. Finish writes it
//	canonical: the sorted label table and rank-coded, strictly
//	ascending records, the Snapshot payload in run framing (DESIGN.md
//	§56). Files written in local symbol order still fold.
//
// The symbol table stays resident throughout (labels are the linear
// axis; pairs are the quadratic one), which is what keeps segment
// records meaningful across drains: DrainSorted never renumbers.
const (
	magicSeg   = "TREEMINESEG1"
	magicSpill = "TREEMINESPL1"
)

// spillRecBytes is the fixed record width: A uint32, B uint32, D int16,
// N int64.
const spillRecBytes = 4 + 4 + 2 + 8

var spillCRCTable = crc32.MakeTable(crc32.Castagnoli)

func putSpillRec(buf []byte, it core.ShardItem) {
	le := binary.LittleEndian
	le.PutUint32(buf[0:], it.A)
	le.PutUint32(buf[4:], it.B)
	le.PutUint16(buf[8:], uint16(int16(it.D)))
	le.PutUint64(buf[10:], uint64(it.N))
}

func getSpillRec(buf []byte) core.ShardItem {
	le := binary.LittleEndian
	return core.ShardItem{
		A: le.Uint32(buf[0:]),
		B: le.Uint32(buf[4:]),
		D: core.Dist(int16(le.Uint16(buf[8:]))),
		N: int64(le.Uint64(buf[10:])),
	}
}

// runBlockRecs is how many records runWriter encodes per block: one
// Write and one CRC update per block instead of per 18-byte record.
// Blocks are an I/O unit only — the file bytes are the same as
// record-at-a-time framing. runReader takes its blocks straight from
// its bufio buffer instead (see fill), so an open run costs no more
// memory than that buffer however large the run.
const runBlockRecs = 4096

// runWriter writes a count-prefixed record run with a trailing CRC32-C
// (over everything after the magic): magic, [header], count, records,
// crc. Push records with write, then finish validates the count and
// seals the checksum.
type runWriter struct {
	bw      *bufio.Writer
	crc     hash.Hash32
	blk     []byte // encoded records not yet handed to bw and crc
	expect  uint64
	written uint64
}

func newRunWriter(w io.Writer, magic string, header []byte, count uint64) (*runWriter, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return nil, err
	}
	crc := crc32.New(spillCRCTable)
	out := io.MultiWriter(bw, crc)
	if header != nil {
		var hlen [4]byte
		binary.LittleEndian.PutUint32(hlen[:], uint32(len(header)))
		if _, err := out.Write(hlen[:]); err != nil {
			return nil, err
		}
		if _, err := out.Write(header); err != nil {
			return nil, err
		}
	}
	var cnt [8]byte
	binary.LittleEndian.PutUint64(cnt[:], count)
	if _, err := out.Write(cnt[:]); err != nil {
		return nil, err
	}
	blk := make([]byte, 0, max(1, min(count, runBlockRecs))*spillRecBytes)
	return &runWriter{bw: bw, crc: crc, blk: blk, expect: count}, nil
}

func (rw *runWriter) write(it core.ShardItem) error {
	if len(rw.blk) == cap(rw.blk) {
		if err := rw.flushBlock(); err != nil {
			return err
		}
	}
	n := len(rw.blk)
	rw.blk = rw.blk[:n+spillRecBytes]
	putSpillRec(rw.blk[n:], it)
	rw.written++
	return nil
}

// flushBlock hands the buffered records to the checksum and the writer.
func (rw *runWriter) flushBlock() error {
	rw.crc.Write(rw.blk)
	_, err := rw.bw.Write(rw.blk)
	rw.blk = rw.blk[:0]
	return err
}

func (rw *runWriter) finish() error {
	if rw.written != rw.expect {
		return fmt.Errorf("store: spill: wrote %d records, expected %d", rw.written, rw.expect)
	}
	if err := rw.flushBlock(); err != nil {
		return err
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], rw.crc.Sum32())
	if _, err := rw.bw.Write(tail[:]); err != nil {
		return err
	}
	return rw.bw.Flush()
}

// runReader streams a count-prefixed record run back a block at a time,
// validating the trailing CRC when the last record has been consumed.
type runReader struct {
	br     *bufio.Reader
	crc    hash.Hash32
	blk    []byte // the current block's records not yet returned; a view of br's buffer
	held   int    // bytes of br's buffer the current block occupies
	remain uint64 // records not yet read into a block
}

// newRunReader consumes the magic and (optionally) the length-prefixed
// header blob, returning the header bytes and a reader positioned at
// the first record.
func newRunReader(r io.Reader, magic string, withHeader bool) (*runReader, []byte, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, nil, fmt.Errorf("%w: %w", ErrBadMagic, err)
	}
	if string(head) != magic {
		return nil, nil, ErrBadMagic
	}
	crc := crc32.New(spillCRCTable)
	tr := io.TeeReader(br, crc)
	var header []byte
	if withHeader {
		var hlen [4]byte
		if _, err := io.ReadFull(tr, hlen[:]); err != nil {
			return nil, nil, fmt.Errorf("%w: header length: %w", ErrCorrupt, err)
		}
		n := binary.LittleEndian.Uint32(hlen[:])
		if n > 1<<30 {
			return nil, nil, fmt.Errorf("%w: implausible header length %d", ErrCorrupt, n)
		}
		header = make([]byte, n)
		if _, err := io.ReadFull(tr, header); err != nil {
			return nil, nil, fmt.Errorf("%w: header: %w", ErrCorrupt, err)
		}
	}
	var cnt [8]byte
	if _, err := io.ReadFull(tr, cnt[:]); err != nil {
		return nil, nil, fmt.Errorf("%w: record count: %w", ErrCorrupt, err)
	}
	rr := &runReader{br: br, crc: crc, remain: binary.LittleEndian.Uint64(cnt[:])}
	return rr, header, nil
}

// next returns the next record; io.EOF after the last one, once the
// trailing CRC has been read and verified.
func (rr *runReader) next() (core.ShardItem, error) {
	if len(rr.blk) == 0 {
		if err := rr.fill(); err != nil {
			return core.ShardItem{}, err
		}
	}
	it := getSpillRec(rr.blk)
	rr.blk = rr.blk[spillRecBytes:]
	return it, nil
}

// fill reads the next block of records, or — with none left — checks
// the trailing CRC and returns io.EOF. A block is as many whole records
// as br's buffer holds, peeked in place: one CRC update per block, and
// no buffer of the reader's own, so k-way merging k open runs holds k
// bufio buffers and nothing more.
func (rr *runReader) fill() error {
	rr.br.Discard(rr.held) // already buffered: cannot fail
	rr.held = 0
	if rr.remain == 0 {
		var tail [4]byte
		if _, err := io.ReadFull(rr.br, tail[:]); err != nil {
			return fmt.Errorf("%w: missing checksum: %w", ErrCorrupt, err)
		}
		if got := binary.LittleEndian.Uint32(tail[:]); got != rr.crc.Sum32() {
			return fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
		}
		// Trailing garbage after the checksum means the file is not what
		// its header claims.
		if _, err := rr.br.ReadByte(); err != io.EOF {
			return fmt.Errorf("%w: data past checksum", ErrCorrupt)
		}
		return io.EOF
	}
	n := min(rr.remain, uint64(rr.br.Size()/spillRecBytes))
	blk, err := rr.br.Peek(int(n) * spillRecBytes)
	if err != nil {
		// Report what a record-at-a-time read would have: a run cut at a
		// record boundary ends in a clean EOF, one cut mid-record in an
		// unexpected one. Any other read error is kept as it came.
		if err == io.EOF && len(blk)%spillRecBytes != 0 {
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("%w: truncated records: %w", ErrCorrupt, err)
	}
	rr.crc.Write(blk)
	rr.remain -= n
	rr.blk, rr.held = blk, len(blk)
	return nil
}

// spillHeader is the gob-encoded header of a spilled shard file.
type spillHeader struct {
	Opts   core.ForestOptions
	Trees  int
	Labels []string
}

// SpillAccumulator bounds a streaming mining run's resident support set:
// wire AfterRound into the StreamConfig and the accumulator drains the
// shard's counts to a sorted spill segment whenever they pass
// maxEntries. Finish produces the worker's output file — a plain v3
// checkpoint when nothing ever spilled, or a spilled-shard file merged
// from all segments plus the resident tail. Segments live in dir and
// are deleted on a successful Finish.
type SpillAccumulator struct {
	sh         *core.SupportShard
	maxEntries int
	dir        string
	segs       []string
	spilled    int64 // bytes of the segment files written
	// held are drained runs no file holds yet — the tail Finish drains,
	// or a segment whose write failed. They join every later merge and
	// are dropped only once Finish's output is durable, so a failed
	// Finish or spill can be retried without losing counts.
	held [][]core.ShardItem
}

// NewSpillAccumulator returns an accumulator spilling sh's counts into
// dir whenever they exceed maxEntries. Only packed shards (MaxDist ≤
// MaxPackedDist) can spill — a generic shard has no stable symbol table
// for segment records to reference.
func NewSpillAccumulator(sh *core.SupportShard, maxEntries int, dir string) (*SpillAccumulator, error) {
	if sh.Options().MaxDist > core.MaxPackedDist {
		return nil, fmt.Errorf("store: spill: maxdist %s exceeds the packed range (%s); out-of-core accumulation needs packed keys",
			sh.Options().MaxDist, core.MaxPackedDist)
	}
	if maxEntries < 1 {
		return nil, fmt.Errorf("store: spill: max resident entries must be positive, got %d", maxEntries)
	}
	return &SpillAccumulator{sh: sh, maxEntries: maxEntries, dir: dir}, nil
}

// AfterRound is the StreamConfig hook: drain when the resident set has
// outgrown the budget.
func (a *SpillAccumulator) AfterRound(sh *core.SupportShard) error {
	if sh.Len() < a.maxEntries {
		return nil
	}
	return a.spill()
}

// Segments returns how many spill segments have been written so far.
func (a *SpillAccumulator) Segments() int { return len(a.segs) }

// spill drains the resident counts to the next segment file.
func (a *SpillAccumulator) spill() error {
	if err := faults.Hit(faults.SpillWrite); err != nil {
		return err
	}
	items, err := a.sh.DrainSorted()
	if err != nil {
		return err
	}
	path := filepath.Join(a.dir, fmt.Sprintf("spill-%04d.seg", len(a.segs)))
	err = AtomicWrite(path, func(w io.Writer) error {
		rw, err := newRunWriter(w, magicSeg, nil, uint64(len(items)))
		if err != nil {
			return err
		}
		for _, it := range items {
			if err := rw.write(it); err != nil {
				return err
			}
		}
		return rw.finish()
	})
	if err != nil {
		a.hold(items)
		return fmt.Errorf("store: spill segment %d: %w", len(a.segs), err)
	}
	if st, err := os.Stat(path); err == nil {
		a.spilled += st.Size()
	}
	a.segs = append(a.segs, path)
	return nil
}

// hold keeps a drained run in memory until Finish's output holds it.
func (a *SpillAccumulator) hold(items []core.ShardItem) {
	if len(items) > 0 {
		a.held = append(a.held, items)
	}
}

// Finish writes the accumulated result to path. With no segments the
// shard never outgrew its budget and a plain v3 checkpoint is written —
// byte-identical to an unspilled run. Otherwise the resident tail is
// drained and every sorted run is k-way merged, streaming, into a
// canonical spilled-shard file: each run is read through one local ID →
// final rank vector, which keeps a label-ordered run ascending, so the
// merge emits the Snapshot's records in the Snapshot's order. Peak
// memory is one buffered reader per segment, never the full pair set.
// Segments and held runs are released on success only; after a failure
// Finish can be called again and loses nothing.
func (a *SpillAccumulator) Finish(path string) error {
	if len(a.segs) == 0 && len(a.held) == 0 {
		return writeShard(path, a.sh)
	}
	if err := faults.Hit(faults.SpillWrite); err != nil {
		return err
	}
	// The resident tail joins the merge as an in-memory sorted run.
	tail, err := a.sh.DrainSorted()
	if err != nil {
		return err
	}
	a.hold(tail)
	local := a.sh.LocalLabels()
	labels, ranks := rankLabels(local)
	rank := make([]uint32, len(local))
	for id, l := range local {
		rank[id] = ranks[l]
	}
	header := spillHeader{Opts: a.sh.Options(), Trees: a.sh.Trees(), Labels: labels}
	var hbuf bytes.Buffer
	if err := gob.NewEncoder(&hbuf).Encode(header); err != nil {
		return fmt.Errorf("store: spill header: %w", err)
	}

	// Pass 1: count the merged (distinct-key) records, so the output
	// run can be count-prefixed without buffering it.
	count := uint64(0)
	if err := a.mergeSegments(rank, func(core.ShardItem) error { count++; return nil }); err != nil {
		return err
	}
	// Pass 2: merge again, streaming into the file.
	err = AtomicWrite(path, func(w io.Writer) error {
		rw, err := newRunWriter(w, magicSpill, hbuf.Bytes(), count)
		if err != nil {
			return err
		}
		if err := a.mergeSegments(rank, rw.write); err != nil {
			return err
		}
		return rw.finish()
	})
	if err != nil {
		return fmt.Errorf("store: spill finish: %w", err)
	}
	for _, seg := range a.segs {
		os.Remove(seg)
	}
	a.segs, a.held = nil, nil
	return nil
}

// mergeSegments k-way merges the on-disk segments plus the held
// in-memory runs, each recoded through rank, summing counts of equal
// keys, and hands each merged record to emit in (A, B, D) order.
func (a *SpillAccumulator) mergeSegments(rank []uint32, emit func(core.ShardItem) error) error {
	runs := make([]func() (core.ShardItem, error), 0, len(a.segs)+len(a.held))
	files := make([]*os.File, 0, len(a.segs))
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()
	for _, seg := range a.segs {
		f, err := os.Open(seg)
		if err != nil {
			return fmt.Errorf("store: spill merge: %w", err)
		}
		files = append(files, f)
		rr, _, err := newRunReader(f, magicSeg, false)
		if err != nil {
			return fmt.Errorf("store: spill merge %s: %w", seg, err)
		}
		runs = append(runs, recode(rr.next, rank))
	}
	for _, run := range a.held {
		i := 0
		runs = append(runs, recode(func() (core.ShardItem, error) {
			if i >= len(run) {
				return core.ShardItem{}, io.EOF
			}
			i++
			return run[i-1], nil
		}, rank))
	}
	return mergeRuns(runs, emit)
}

// recode reads a label-ordered run coded by local IDs as the same run
// coded by final ranks — ascending, with A ≤ B.
func recode(next func() (core.ShardItem, error), rank []uint32) func() (core.ShardItem, error) {
	return func() (core.ShardItem, error) {
		it, err := next()
		if err != nil {
			return it, err
		}
		if int(it.A) >= len(rank) || int(it.B) >= len(rank) {
			return it, fmt.Errorf("%w: symbol id out of range", ErrCorrupt)
		}
		it.A, it.B = rank[it.A], rank[it.B]
		return it, nil
	}
}

// spillItemLess orders records by (A, B, D) — the order of every run
// mergeRuns reads once it is recoded by final rank.
func spillItemLess(x, y core.ShardItem) bool {
	if x.A != y.A {
		return x.A < y.A
	}
	if x.B != y.B {
		return x.B < y.B
	}
	return x.D < y.D
}

// mergeRuns is the streaming k-way merge: every run yields records in
// (A, B, D) order, equal keys — across runs or within one — are
// summed, and merged records reach emit in that same order. Memory is
// one record per run. The heads live in a binary min-heap: a tight
// -max-resident budget can leave hundreds of segments (one per spilled
// round), and a linear minimum scan at that fan-in turns the merge
// quadratic in the segment count.
func mergeRuns(runs []func() (core.ShardItem, error), emit func(core.ShardItem) error) error {
	type head struct {
		it  core.ShardItem
		run int
	}
	heads := make([]head, 0, len(runs))
	siftDown := func(i int) {
		for {
			l := 2*i + 1
			if l >= len(heads) {
				return
			}
			m := l
			if r := l + 1; r < len(heads) && spillItemLess(heads[r].it, heads[l].it) {
				m = r
			}
			if !spillItemLess(heads[m].it, heads[i].it) {
				return
			}
			heads[i], heads[m] = heads[m], heads[i]
			i = m
		}
	}
	for i := range runs {
		it, err := runs[i]()
		if err == io.EOF {
			continue
		}
		if err != nil {
			return err
		}
		heads = append(heads, head{it: it, run: i})
	}
	for i := len(heads)/2 - 1; i >= 0; i-- {
		siftDown(i)
	}
	// popTop replaces the minimum head with its run's next record (or
	// shrinks the heap when the run is dry) and restores heap order.
	popTop := func() error {
		run := heads[0].run
		it, err := runs[run]()
		switch {
		case err == io.EOF:
			heads[0] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
		case err != nil:
			return err
		default:
			heads[0] = head{it: it, run: run}
		}
		siftDown(0)
		return nil
	}
	for len(heads) > 0 {
		cur := heads[0].it
		if err := popTop(); err != nil {
			return err
		}
		for len(heads) > 0 && heads[0].it.A == cur.A && heads[0].it.B == cur.B && heads[0].it.D == cur.D {
			cur.N += heads[0].it.N
			if err := popTop(); err != nil {
				return err
			}
		}
		if err := emit(cur); err != nil {
			return err
		}
	}
	return nil
}

// SpilledShardReader streams a spilled-shard file: header fields are
// decoded eagerly, records arrive one Next at a time, and the trailing
// CRC is verified before Next reports io.EOF.
type SpilledShardReader struct {
	Opts   core.ForestOptions
	Trees  int
	Labels []string

	f  *os.File
	rr *runReader
}

// OpenSpilledShard opens and header-validates a spilled-shard file.
func OpenSpilledShard(path string) (*SpilledShardReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	rr, hraw, err := newRunReader(f, magicSpill, true)
	if err != nil {
		f.Close()
		return nil, err
	}
	var h spillHeader
	if err := gob.NewDecoder(bytes.NewReader(hraw)).Decode(&h); err != nil {
		f.Close()
		return nil, fmt.Errorf("%w: spill header: %w", ErrCorrupt, err)
	}
	if h.Trees < 0 || len(h.Labels) > core.MaxSymbols {
		f.Close()
		return nil, fmt.Errorf("%w: implausible spill header (trees %d, %d labels)", ErrCorrupt, h.Trees, len(h.Labels))
	}
	return &SpilledShardReader{Opts: h.Opts, Trees: h.Trees, Labels: h.Labels, f: f, rr: rr}, nil
}

// Next returns the next support record; io.EOF after the last one.
func (r *SpilledShardReader) Next() (core.ShardItem, error) { return r.rr.next() }

// Close releases the underlying file.
func (r *SpilledShardReader) Close() error { return r.f.Close() }

// validateSpillItem applies the RestoreShard validation rules to one
// streamed record.
func validateSpillItem(it core.ShardItem, opts core.ForestOptions, nLabels int) error {
	if int(it.A) >= nLabels || int(it.B) >= nLabels {
		return fmt.Errorf("%w: symbol id out of range", ErrCorrupt)
	}
	if it.N < 1 {
		return fmt.Errorf("%w: non-positive count %d", ErrCorrupt, it.N)
	}
	if opts.IgnoreDist != it.D.IsWild() {
		return fmt.Errorf("%w: distance %s inconsistent with IgnoreDist=%v", ErrCorrupt, it.D, opts.IgnoreDist)
	}
	if !it.D.IsWild() && (it.D < 0 || it.D > opts.MaxDist) {
		return fmt.Errorf("%w: distance %s beyond maxdist %s", ErrCorrupt, it.D, opts.MaxDist)
	}
	return nil
}

// sniffSpillMagic reports whether path starts with the spilled-shard
// magic (as opposed to a v3 checkpoint's).
func sniffSpillMagic(path string) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return false, err
	}
	var head [len(magicSpill)]byte
	_, err = io.ReadFull(f, head[:])
	f.Close()
	if err != nil {
		return false, fmt.Errorf("%w: %w", ErrBadMagic, err)
	}
	return string(head[:]) == magicSpill, nil
}

// scanSpilled streams the spilled shard at path, checking the CRC, the
// record count, the option provenance and per-record bounds. With a
// master it also folds the records in batches, so the master's lock is
// taken once per batch and the file's labels are interned once. Returns
// the tree tally the file covers.
func scanSpilled(path string, opts core.ForestOptions, master *core.SupportShard) (trees int, err error) {
	r, err := OpenSpilledShard(path)
	if err != nil {
		return 0, err
	}
	defer r.Close()
	if r.Opts != opts {
		return 0, fmt.Errorf("store: spilled shard mined with options %+v, master wants %+v", r.Opts, opts)
	}
	const batch = 4096
	items, treesToAdd := make([]core.ShardItem, 0, batch), r.Trees
	fold := func(int, []core.ShardItem) error { return nil }
	if master != nil {
		fold = master.FoldFrom(r.Labels)
	}
	flush := func() error {
		if len(items) == 0 && treesToAdd == 0 {
			return nil
		}
		err := fold(treesToAdd, items)
		treesToAdd, items = 0, items[:0]
		return err
	}
	for {
		it, err := r.Next()
		if err == io.EOF {
			if err := flush(); err != nil {
				return 0, err
			}
			return r.Trees, nil
		}
		if err != nil {
			return 0, err
		}
		if err := validateSpillItem(it, r.Opts, len(r.Labels)); err != nil {
			return 0, err
		}
		if items = append(items, it); len(items) == batch {
			if err := flush(); err != nil {
				return 0, err
			}
		}
	}
}

// VerifyShardFile validates a worker shard file — v3 or spilled,
// sniffed by magic — without folding it: the file must exist, load
// cleanly (magic, checksums, structural invariants), and carry exactly
// the mining options opts. Returns the tree tally it covers. This is
// the coordinator's skip-completed probe: a shard that verifies counts
// as done, so a resumed run re-mines only the ranges that don't.
func VerifyShardFile(path string, opts core.ForestOptions) (trees int, err error) {
	return scanShardFile(path, opts, nil, -1)
}

// FoldShardFile folds a worker shard file — v3 or spilled, sniffed by
// magic — into master, translating symbols across tables. Spilled files
// are fully validated (CRC, count, per-record bounds) in a streaming
// pre-pass before any record is folded, so a torn file never taints the
// master. The folded file's tree tally is returned for provenance
// checks.
func FoldShardFile(master *core.SupportShard, path string) (trees int, err error) {
	return scanShardFile(path, master.Options(), master, -1)
}

// scanShardFile is VerifyShardFile and FoldShardFile in one: it
// validates the shard file at path against opts — one streaming scan of
// a spilled file, one decode of a v3 checkpoint — and returns its tree
// tally. With a master, and when the tally is want (any tally for
// want < 0), it then folds the file in: a spilled file in a second
// scan, a v3 one from the decode it already holds. A tally other than
// want comes back with a nil error and the master untouched.
func scanShardFile(path string, opts core.ForestOptions, master *core.SupportShard, want int) (trees int, err error) {
	if master != nil && master.Options() != opts {
		return 0, fmt.Errorf("store: master holds options %+v, shard must carry %+v", master.Options(), opts)
	}
	spilled, err := sniffSpillMagic(path)
	if err != nil {
		return 0, err
	}
	var sh *core.SupportShard
	if spilled {
		trees, err = scanSpilled(path, opts, nil)
	} else if sh, err = loadShardFile(path); err == nil {
		trees = sh.Trees()
		if sh.Options() != opts {
			err = fmt.Errorf("store: shard mined with options %+v, master wants %+v", sh.Options(), opts)
		}
	}
	if err != nil {
		return 0, err
	}
	if master == nil || want >= 0 && trees != want {
		return trees, nil
	}
	if spilled {
		return scanSpilled(path, opts, master)
	}
	return trees, master.Merge(sh)
}
