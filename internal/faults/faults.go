// Package faults is the failpoint registry of the mining runtime: named
// injection sites compiled into the long-running pipelines (streaming
// forest mining, the parallel distance-matrix fill, the parsimony
// search, atomic checkpoint writes) that tests — or an operator via the
// TREEMINE_FAULTS environment variable — can arm to inject iterator
// errors, checkpoint-write failures, torn writes, and worker panics.
//
// A disarmed registry costs one atomic load per Hit call, so the
// failpoints stay compiled into production binaries; the chaos suite
// (make chaos) arms them to prove cancellation, panic containment, and
// checkpoint durability under fault.
//
// Activation from the environment uses a comma-separated list of specs:
//
//	TREEMINE_FAULTS='core/stream/next=error@100,core/mine/worker=panic'
//
// where each spec is name=mode[@after][#count][%statefile]: mode is
// "error", "panic", "kill" (the process SIGKILLs itself — an abrupt
// worker death, defers skipped), or "stall" (the hit blocks forever —
// a hung worker an external timeout must reap), after is the number of
// hits to let pass before firing (default 0), and count is how many
// hits fire (default: every hit once triggered).
//
// A %statefile suffix makes the hit/fire counters persistent in the
// named file, shared by every process armed with the same spec — the
// coordinator chaos drills use it to express "this failpoint fires on
// the first K hits across worker restarts, then passes", which a
// per-process registry cannot (a re-executed worker starts fresh).
// Counter updates run under an exclusive file lock (where the platform
// has one), so concurrent workers sharing a spec observe one counter
// sequence — "#1" fires once across the fleet, not once per process.
package faults

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Catalogued failpoint names. Each names the boundary it interrupts;
// see DESIGN.md §47 for the catalogue with the behavior each one
// simulates.
const (
	// StreamNext fires in MineForestStreamShardCtx just before a tree is
	// pulled from the iterator — a mid-stream source failure.
	StreamNext = "core/stream/next"
	// StreamCheckpoint fires just before the stream's checkpoint
	// callback runs — a checkpoint-write failure.
	StreamCheckpoint = "core/stream/checkpoint"
	// MineWorker fires inside every forest-mining worker, per tree — a
	// crashing miner (arm in panic mode to test containment).
	MineWorker = "core/mine/worker"
	// ProfileWorker fires inside BuildProfilesCtx workers, per tree.
	ProfileWorker = "core/profile/worker"
	// MatrixWorker fires inside ProfileDistMatrixCtx workers, per row.
	MatrixWorker = "core/matrix/worker"
	// ClimbWorker fires at the start of every parsimony climb round.
	ClimbWorker = "parsimony/climb"
	// AtomicTorn fires in store.AtomicWrite after the payload is written
	// but before fsync: the temp file is torn in half and abandoned,
	// simulating a crash mid-flush.
	AtomicTorn = "store/atomic/torn"
	// AtomicSync fires in store.AtomicWrite in place of the fsync — an
	// fsync failure surfaced by the filesystem.
	AtomicSync = "store/atomic/sync"
	// AtomicCrash fires in store.AtomicWrite between the durable temp
	// write and the rename: the temp file is left behind and the
	// destination untouched, simulating a kill in the rename window.
	AtomicCrash = "store/atomic/crash"
	// ServeHandler fires at the top of every cousinserve request
	// handler, inside the per-request guard — a failing (error mode) or
	// crashing (panic mode) handler that must surface as a clean 5xx.
	ServeHandler = "serve/handler"
	// ServeSlow stalls the handler until the request context is done —
	// a stuck handler that the per-request deadline must bound.
	ServeSlow = "serve/handler/slow"
	// ServeCache fires in the query server's result-cache lookup and
	// store paths; an armed hit disables the cache for that operation,
	// so responses must stay correct with the cache out of the loop.
	ServeCache = "serve/cache"
	// ServeLoad fires per read while the query server loads its index
	// at startup — a mid-load I/O failure.
	ServeLoad = "serve/load"
	// StoreMmap fires in store.OpenMapped before the file is mapped — a
	// failing mmap (address space exhaustion, a filesystem that refuses
	// the mapping) that must surface as a clean open error.
	StoreMmap = "store/mmap"
	// SpillWrite fires in the out-of-core accumulator just before a
	// spill segment (or the final merged spill file) is written — a disk
	// failure mid-spill that must abort the worker cleanly, leaving the
	// destination shard absent so the coordinator re-mines the range.
	SpillWrite = "store/spill/write"
	// CoordLaunch fires in the supervising coordinator just before a
	// worker attempt is launched — a spawn failure (fork limit, missing
	// binary) the retry machinery must absorb. The coordinator also
	// probes "coord/worker/launch/<partition>", so a drill can target
	// one partition deterministically (e.g. to leave it permanently
	// dead for the -allow-partial degradation path).
	CoordLaunch = "coord/worker/launch"
	// CoordJournal fires just before the coordinator persists its
	// attempt journal — a journal-write failure that must never take
	// the mining run down with it.
	CoordJournal = "coord/journal/write"
)

// ErrInjected is the sentinel all injected failures match with
// errors.Is, whether they surfaced as returned errors or as recovered
// panics.
var ErrInjected = errors.New("faults: injected failure")

// InjectedError is the error value an armed failpoint produces.
type InjectedError struct {
	// Name is the failpoint that fired.
	Name string
}

func (e *InjectedError) Error() string { return "faults: injected failure at " + e.Name }

// Is makes errors.Is(err, ErrInjected) true for every injected failure.
func (e *InjectedError) Is(target error) bool { return target == ErrInjected }

// Mode selects what an armed failpoint does when it fires.
type Mode int

const (
	// ModeError makes Hit return an *InjectedError.
	ModeError Mode = iota
	// ModePanic makes Hit panic with an *InjectedError — the injected
	// analogue of a worker bug, used to prove containment.
	ModePanic
	// ModeKill makes Hit SIGKILL the whole process (hard exit on
	// platforms without signals) — the injected analogue of an abrupt
	// worker death: no defers, no atomic-write completion, nothing.
	// Only meaningful in subprocess drills; in-process it kills the
	// test binary.
	ModeKill
	// ModeStall makes Hit block forever — a hung worker that only an
	// external supervisor (attempt timeout, straggler re-execution,
	// SIGKILL) can reap. Only meaningful in subprocess drills.
	ModeStall
)

// Spec arms a failpoint: skip After hits, then fire on the next Count
// hits (Count ≤ 0 fires on every hit once triggered). A non-empty
// StateFile keeps the hit/fire counters in that file instead of in
// process memory, so they survive worker restarts.
type Spec struct {
	Mode      Mode
	After     int
	Count     int
	StateFile string
}

type point struct {
	spec  Spec
	hits  int
	fired int
}

var (
	// armed is the fast-path gate: false whenever no failpoint is
	// enabled anywhere, so production Hit calls cost one atomic load.
	armed  atomic.Bool
	mu     sync.Mutex
	points = map[string]*point{}
)

// Enable arms the named failpoint. Re-enabling resets its hit counters.
func Enable(name string, spec Spec) {
	mu.Lock()
	defer mu.Unlock()
	points[name] = &point{spec: spec}
	armed.Store(true)
}

// Reset disarms every failpoint.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	points = map[string]*point{}
	armed.Store(false)
}

// Hit is the injection site: it reports whether the named failpoint
// fires at this call. Disarmed (the production state) it returns nil
// after one atomic load. Armed in ModeError it returns an
// *InjectedError; in ModePanic it panics with one — the caller's
// containment boundary is expected to recover it.
func Hit(name string) error {
	if !armed.Load() {
		return nil
	}
	mu.Lock()
	p, ok := points[name]
	if !ok {
		mu.Unlock()
		return nil
	}
	var fire bool
	if p.spec.StateFile != "" {
		// Counters live on disk so a re-executed process continues where
		// the previous one left off. The read-modify-write runs under an
		// exclusive file lock: concurrent workers sharing a spec must see
		// a single counter sequence, or "#1" could fire once per process.
		p.hits, p.fired, fire = bumpCounters(p.spec.StateFile, p.spec.After, p.spec.Count)
	} else {
		p.hits++
		fire = p.hits > p.spec.After && (p.spec.Count <= 0 || p.fired < p.spec.Count)
		if fire {
			p.fired++
		}
	}
	mode := p.spec.Mode
	mu.Unlock()
	if !fire {
		return nil
	}
	err := &InjectedError{Name: name}
	switch mode {
	case ModePanic:
		panic(err)
	case ModeKill:
		selfKill()
	case ModeStall:
		// Block this goroutine forever; the process is expected to be
		// reaped from outside (timeout kill, speculative twin winning,
		// an operator). Sleeping in a loop avoids tripping the
		// runtime's all-goroutines-asleep deadlock detector.
		for {
			time.Sleep(time.Hour)
		}
	}
	return err
}

// bumpCounters advances the "hits fired" counters in a spec's state
// file by one hit, under an exclusive lock so concurrent processes
// sharing the spec observe one counter sequence, and reports whether
// this hit fires. A missing file reads as zero (the drill's starting
// state); an unopenable one disables firing — best-effort either way:
// a statefile problem degrades the drill, never the mining.
func bumpCounters(path string, after, count int) (hits, fired int, fire bool) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return 0, 0, false
	}
	defer f.Close()
	lockState(f)
	defer unlockState(f)
	data, _ := io.ReadAll(f)
	fmt.Sscanf(string(data), "%d %d", &hits, &fired)
	hits++
	fire = hits > after && (count <= 0 || fired < count)
	if fire {
		fired++
	}
	if _, err := f.Seek(0, io.SeekStart); err == nil {
		if err := f.Truncate(0); err == nil {
			fmt.Fprintf(f, "%d %d\n", hits, fired)
		}
	}
	return hits, fired, fire
}

// Apply parses and arms a comma-separated failpoint spec list — the
// TREEMINE_FAULTS grammar: name=mode[@after][#count][%statefile], e.g.
// "core/stream/next=error@100", "core/mine/worker=panic#1", or
// "store/spill/write=error#2%/tmp/fp.state" (fires on the first two
// hits across process restarts, then passes).
func Apply(specs string) error {
	for _, part := range strings.Split(specs, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, rest, ok := strings.Cut(part, "=")
		if !ok || name == "" {
			return fmt.Errorf("faults: bad spec %q (want name=mode[@after][#count])", part)
		}
		spec, err := parseSpec(rest)
		if err != nil {
			return fmt.Errorf("faults: bad spec %q: %w", part, err)
		}
		Enable(name, spec)
	}
	return nil
}

func parseSpec(s string) (Spec, error) {
	var spec Spec
	// The state-file path comes off first so path bytes can never be
	// mistaken for the @ and # markers.
	if i := strings.IndexByte(s, '%'); i >= 0 {
		spec.StateFile = s[i+1:]
		if spec.StateFile == "" {
			return spec, fmt.Errorf("empty state file")
		}
		s = s[:i]
	}
	if i := strings.IndexByte(s, '#'); i >= 0 {
		n, err := strconv.Atoi(s[i+1:])
		if err != nil || n < 1 {
			return spec, fmt.Errorf("count %q", s[i+1:])
		}
		spec.Count = n
		s = s[:i]
	}
	if i := strings.IndexByte(s, '@'); i >= 0 {
		n, err := strconv.Atoi(s[i+1:])
		if err != nil || n < 0 {
			return spec, fmt.Errorf("after %q", s[i+1:])
		}
		spec.After = n
		s = s[:i]
	}
	switch s {
	case "error":
		spec.Mode = ModeError
	case "panic":
		spec.Mode = ModePanic
	case "kill":
		spec.Mode = ModeKill
	case "stall":
		spec.Mode = ModeStall
	default:
		return spec, fmt.Errorf("mode %q (want error, panic, kill, or stall)", s)
	}
	return spec, nil
}

func init() {
	if env := os.Getenv("TREEMINE_FAULTS"); env != "" {
		if err := Apply(env); err != nil {
			fmt.Fprintln(os.Stderr, "treemine:", err, "(TREEMINE_FAULTS ignored)")
			Reset()
		}
	}
}
