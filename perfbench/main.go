// Command perfbench is treemine's ingest-and-serve benchmark. Each run
// takes one workload through two phases, each in its own process so its
// peak RSS is its own:
//
//   - ingest: a generated Newick corpus becomes a durable v4 index, in
//     the call sequence cousinmine uses (stream → checkpoint → compact,
//     or for a spill workload worker spill → finish → merge fold →
//     compact);
//   - serve: the index is opened with serve.OpenPath and driven over
//     HTTP by a closed loop on one connection.
//
// Every ingested index must be byte-identical to a reference mined in
// memory from the same trees, and sampled responses must match the
// reference. The last line of standard output is one JSON object:
// end-to-end metrics when -trace 0, per-layer metrics when -trace 1.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload fig6 --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"treemine/internal/store"
)

func main() {
	var err error
	switch {
	case len(os.Args) > 1 && os.Args[1] == "ingest":
		err = ingestChild(os.Args[2:])
	case len(os.Args) > 1 && os.Args[1] == "serve":
		err = serveChild(os.Args[2:])
	default:
		err = benchMain(os.Args[1:], os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func newFlagSet(name string) *flag.FlagSet {
	return flag.NewFlagSet(name, flag.ContinueOnError)
}

func writeJSONLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// options are one benchmark run's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64 // corpus size multiplier; tests shrink it
	workRoot string  // parent of the run's scratch directory
	exe      string  // binary that runs the ingest and serve processes
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func benchMain(args []string, stdout io.Writer) error {
	fs := newFlagSet("perfbench")
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload: fig6, treebase or deep")
	fs.Int64Var(&o.seed, "seed", 1, "seed the corpus and queries are generated from")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured time of the run")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	fs.Float64Var(&o.scale, "scale", 1, "corpus size multiplier")
	fs.StringVar(&o.workRoot, "work", filepath.Join(".bench_build", "perfbench-work"), "scratch directory root")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	o.trace = *trace == 1
	if o.seconds <= 0 || o.scale <= 0 {
		return fmt.Errorf("-seconds and -scale must be positive")
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	o.exe = exe
	res, err := run(o)
	if err != nil {
		return err
	}
	return writeJSONLine(stdout, res)
}

// run performs one benchmark run.
func run(o options) (*result, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	w = w.scaled(o.scale)
	if err := os.MkdirAll(o.workRoot, 0o777); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.workRoot, fmt.Sprintf("%s-%d-", w.name, o.seed))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	logf("%s seed %d: generating %d trees", w.name, o.seed, w.trees)
	c, err := makeCorpus(w, o.seed, dir)
	if err != nil {
		return nil, err
	}
	refBytes, err := os.ReadFile(c.ref)
	if err != nil {
		return nil, err
	}
	ref, err := store.OpenMapped(c.ref)
	if err != nil {
		return nil, err
	}
	defer ref.Close()
	ps, err := makeProbes(ref, o.seed, w.deepProbes)
	if err != nil {
		return nil, err
	}
	probesPath := filepath.Join(dir, "probes.json")
	raw, err := json.Marshal(ps)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(probesPath, raw, 0o666); err != nil {
		return nil, err
	}

	res := &result{Metrics: map[string]metric{}}
	ing := &ingestRunner{o: o, w: w, c: c, dir: dir, ref: refBytes, res: res}
	srv := &serveRunner{o: o, ref: ref, ps: ps, probesPath: probesPath, res: res}
	var plain, traced []*ingestReport
	var served []*serveReport
	budget := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	for r := 0; r < rounds; r++ {
		began := time.Now()
		rep, err := ing.once(false)
		if err != nil {
			return nil, err
		}
		plain = append(plain, rep)
		if o.trace {
			if rep, err = ing.once(true); err != nil {
				return nil, err
			}
			traced = append(traced, rep)
		}
		// Share the time left between this serving process and the
		// remaining rounds, each expected to ingest as long as this one.
		ingested := time.Since(began)
		left := rounds - r
		slice := (budget - time.Since(start) - time.Duration(left-1)*ingested) / time.Duration(left)
		sr, err := srv.once(ing.lastIndex, max(slice, budget/minSliceInv))
		if err != nil {
			return nil, err
		}
		served = append(served, sr)
	}
	logf("%s: %d rounds in %.1fs, median ingest %.3fs", w.name, len(served), time.Since(start).Seconds(),
		median(collect(plain, func(r *ingestReport) float64 { return r.WallS })))
	res.Correct = res.Failed == 0

	if o.trace {
		layerMetrics(res.Metrics, plain, traced, served)
	} else {
		endToEndMetrics(res.Metrics, plain, len(refBytes), served)
	}
	return res, nil
}

// A run is a sequence of rounds, each one ingest process (two when
// traced: one untraced, one traced) followed by one serving process,
// which gets the time of --seconds that the ingests leave. Alternating
// the phases spreads every metric over the whole run, and taking medians
// over processes keeps what one process happens to get (its CPU, its
// memory placement) out of the figures. On a host too slow to ingest
// within --seconds, each serving process still runs 1/minSliceInv of it.
const (
	rounds      = 4
	minSliceInv = 32
)

// ingestRunner runs ingest processes over one corpus and checks each
// index they write against the reference.
type ingestRunner struct {
	o         options
	w         workload
	c         *corpus
	dir       string
	ref       []byte
	res       *result
	n         int
	lastIndex string
}

func (r *ingestRunner) once(traced bool) (*ingestReport, error) {
	r.n++
	dir := filepath.Join(r.dir, fmt.Sprintf("ingest-%d", r.n))
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, err
	}
	out := filepath.Join(dir, "index.v4")
	args := []string{"ingest", "-workload", r.w.name, "-scale", strconv.FormatFloat(r.o.scale, 'g', -1, 64),
		"-corpus", r.c.path, "-out", out, "-dir", dir, "-traced=" + strconv.FormatBool(traced)}
	var rep ingestReport
	if err := runChild(r.o.exe, args, &rep); err != nil {
		return nil, err
	}
	got, err := os.ReadFile(out)
	if err != nil {
		return nil, err
	}
	r.res.Attempted += r.w.trees
	switch {
	case rep.Trees != r.w.trees:
		r.res.Failed += r.w.trees
		logf("%s: ingest %d mined %d trees, corpus has %d", r.w.name, r.n, rep.Trees, r.w.trees)
	case !bytes.Equal(got, r.ref):
		r.res.Failed += r.w.trees
		logf("%s: ingest %d wrote an index that differs from the reference", r.w.name, r.n)
	}
	// Keep only the newest index; the next serving process opens it.
	if r.lastIndex != "" {
		if err := os.RemoveAll(filepath.Dir(r.lastIndex)); err != nil {
			return nil, err
		}
	}
	for _, f := range []string{"spill", "worker.shard", "run.shard"} {
		if err := os.RemoveAll(filepath.Join(dir, f)); err != nil {
			return nil, err
		}
	}
	r.lastIndex = out
	return &rep, nil
}

// serveRunner runs serving processes and checks their sampled answers
// against the reference.
type serveRunner struct {
	o          options
	ref        *store.Mapped
	ps         *probeSet
	probesPath string
	res        *result
}

// once runs one serving process for about slice against index. The
// slice is split between cold starts (10%), warm-ups (10% lookups, 5%
// listings), the support leg (25%) and the frequent leg (50%).
func (r *serveRunner) once(index string, slice time.Duration) (*serveReport, error) {
	part := func(pct int64) string { return (slice * time.Duration(pct) / 100).String() }
	args := []string{"serve", "-index", index, "-probes", r.probesPath,
		"-reopen", part(10), "-warmup", part(10), "-support", part(25), "-frequent", part(50),
		"-traced=" + strconv.FormatBool(r.o.trace)}
	var sr serveReport
	if err := runChild(r.o.exe, args, &sr); err != nil {
		return nil, err
	}
	bad := verifySamples(r.ref, r.ps, sr.Samples)
	r.res.Attempted += len(sr.StartsS) + sr.Support.Requests + sr.Frequent.Requests
	r.res.Failed += sr.Support.Failed + sr.Frequent.Failed + bad
	if bad > 0 {
		logf("%d of %d sampled responses differ from the reference", bad, len(sr.Samples))
	}
	sr.Samples = nil
	logf("serve: setup %.3gms, support p50 %.4gms p99 %.4gms, frequent p50 %.4gms p99 %.4gms",
		median(sr.StartsS)*1e3, sr.Support.P50Ms, sr.Support.P99Ms, sr.Frequent.P50Ms, sr.Frequent.P99Ms)
	return &sr, nil
}

// runChild runs this binary with args and decodes the JSON object on
// the last line of its standard output into v.
func runChild(exe string, args []string, v any) error {
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s process: %w", args[0], err)
	}
	return json.Unmarshal(lastLine(stdout.Bytes()), v)
}

func lastLine(b []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(nil, 1<<30)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}

const mib = 1 << 20

// endToEndMetrics fills the user-visible metrics of an untraced run.
// Each is the median over the run's ingest or serving processes;
// setup_s is the median over every cold start of the run.
func endToEndMetrics(m map[string]metric, ingests []*ingestReport, indexBytes int, served []*serveReport) {
	serveMedian := func(f func(*serveReport) float64) float64 { return median(collect(served, f)) }
	var starts []float64
	for _, sr := range served {
		starts = append(starts, sr.StartsS...)
	}
	m["ingest_trees_per_s"] = metric{median(collect(ingests, func(r *ingestReport) float64 { return float64(r.Trees) / r.WallS })), "trees/s"}
	m["ingest_peak_rss_mib"] = metric{median(collect(ingests, func(r *ingestReport) float64 { return float64(r.RSSKiB) / 1024 })), "MiB"}
	m["index_mib"] = metric{float64(indexBytes) / mib, "MiB"}
	m["setup_s"] = metric{median(starts), "s"}
	m["support_qps"] = metric{serveMedian(func(sr *serveReport) float64 { return sr.Support.QPS }), "1/s"}
	m["support_p50_ms"] = metric{serveMedian(func(sr *serveReport) float64 { return sr.Support.P50Ms }), "ms"}
	m["support_p99_ms"] = metric{serveMedian(func(sr *serveReport) float64 { return sr.Support.P99Ms }), "ms"}
	m["frequent_p50_ms"] = metric{serveMedian(func(sr *serveReport) float64 { return sr.Frequent.P50Ms }), "ms"}
	m["frequent_p99_ms"] = metric{serveMedian(func(sr *serveReport) float64 { return sr.Frequent.P99Ms }), "ms"}
	m["serve_peak_rss_mib"] = metric{serveMedian(func(sr *serveReport) float64 { return float64(sr.RSSKiB) / 1024 }), "MiB"}
}

// layerMetrics fills the per-layer metrics of a traced run. Times are
// medians over the traced ingests or the serving processes; the
// overhead compares the traced ingests with the untraced ingests of the
// same rounds. Cache counters are summed over the serving processes.
func layerMetrics(m map[string]metric, plain, traced []*ingestReport, served []*serveReport) {
	serveMedian := func(f func(*serveTrace) float64) float64 {
		return median(collect(served, func(sr *serveReport) float64 { return f(sr.Trace) }))
	}
	var st serveTrace
	for _, sr := range served {
		st.CacheHits += sr.Trace.CacheHits
		st.CacheMisses += sr.Trace.CacheMisses
		st.CacheEvictions += sr.Trace.CacheEvictions
		st.CacheBypass += sr.Trace.CacheBypass
	}
	layer := func(f func(l *layerTimes) float64) float64 {
		return median(collect(traced, func(r *ingestReport) float64 { return f(r.Layers) }))
	}
	l0 := traced[0].Layers // counts and sizes repeat exactly across ingests
	wall := median(collect(traced, func(r *ingestReport) float64 { return r.WallS }))
	m["newick.parse_s"] = metric{layer(func(l *layerTimes) float64 { return l.ParseS }), "s"}
	m["newick.trees"] = metric{float64(traced[0].Trees), "count"}
	m["newick.input_mib"] = metric{float64(l0.InputBytes) / mib, "MiB"}
	m["core.mine_s"] = metric{layer(func(l *layerTimes) float64 { return l.MineS }), "s"}
	m["core.rounds"] = metric{float64(l0.Rounds), "count"}
	m["core.pairs"] = metric{float64(l0.Pairs), "count"}
	m["store.spill_s"] = metric{layer(func(l *layerTimes) float64 { return l.SpillS }), "s"}
	m["store.spill_segments"] = metric{float64(l0.Segments), "count"}
	m["store.spill_mib"] = metric{float64(l0.SpillBytes) / mib, "MiB"}
	m["store.checkpoint_s"] = metric{layer(func(l *layerTimes) float64 { return l.CheckpointS }), "s"}
	m["store.fold_s"] = metric{layer(func(l *layerTimes) float64 { return l.FoldS }), "s"}
	m["store.compact_s"] = metric{layer(func(l *layerTimes) float64 { return l.CompactS }), "s"}
	m["store.write_amp"] = metric{float64(l0.WrittenBytes) / float64(l0.IndexBytes), "ratio"}
	m["store.open_s"] = metric{serveMedian(func(t *serveTrace) float64 { return t.OpenS }), "s"}
	m["serve.support_backend_us"] = metric{serveMedian(func(t *serveTrace) float64 { return t.SupportBackendUs }), "us"}
	m["serve.frequent_backend_ms"] = metric{serveMedian(func(t *serveTrace) float64 { return t.FrequentBackendMs }), "ms"}
	hitRatio := 0.0
	if lookups := st.CacheHits + st.CacheMisses; lookups > 0 {
		hitRatio = float64(st.CacheHits) / float64(lookups)
	}
	m["serve.cache_hit_ratio"] = metric{hitRatio, "ratio"}
	m["serve.cache_evictions"] = metric{float64(st.CacheEvictions), "count"}
	m["serve.cache_bypass"] = metric{float64(st.CacheBypass), "count"}
	m["trace.ingest_wall_s"] = metric{wall, "s"}
	m["trace.unattributed_s"] = metric{median(collect(traced, func(r *ingestReport) float64 { return r.WallS - r.Layers.attributed() })), "s"}
	m["trace.attributed_share"] = metric{median(collect(traced, func(r *ingestReport) float64 { return r.Layers.attributed() / r.WallS })), "ratio"}
	m["trace.overhead_s"] = metric{wall - median(collect(plain, func(r *ingestReport) float64 { return r.WallS })), "s"}
}

func collect[T any](xs []T, f func(T) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the nearest-rank q-quantile of xs (0 for none),
// sorting xs in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

// peakRSSKiB is this process's peak resident set size: VmHWM, the high
// water mark of its own address space. getrusage's ru_maxrss is not
// used because Linux carries it across exec, so a child would report
// its parent's size at spawn.
func peakRSSKiB() (int64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// resetPeakRSS hands freed heap back to the OS and restarts this
// process's VmHWM from its current RSS, so a later peakRSSKiB leaves out
// what set-up held.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte("5")); err != nil {
		f.Close()
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return f.Close()
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}
