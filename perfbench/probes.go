package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"strconv"

	"treemine/internal/core"
	"treemine/internal/serve"
	"treemine/internal/store"
)

// supportProbe is one /v1/support point lookup.
type supportProbe struct {
	L1 string    `json:"l1"`
	L2 string    `json:"l2"`
	D  core.Dist `json:"d"`
}

// frequentProbe is one /v1/frequent listing; MaxDist DistWild omits the
// filter.
type frequentProbe struct {
	MinSup  int       `json:"minsup"`
	MaxDist core.Dist `json:"maxdist"`
	Limit   int       `json:"limit"`
}

// probeSet is the query stream of the serve phase.
type probeSet struct {
	Support  []supportProbe  `json:"support"`
	Frequent []frequentProbe `json:"frequent"`
}

// Query-mix shape. A lookup draws both labels by a Zipf law (s = zipfS)
// over the index's labels, most used first, and a uniform distance, so
// the hot set is a few popular taxa and the pair space grows with the
// alphabet: on fig6 (200 labels) about two lookups in three hit the
// serve cache, on treebase (18,870 labels) about one in four or five.
// Listings take a minsup at a random position among the freqScanCap most
// supported records, a random distance filter and a limit of at most
// maxFreqLimit; no two are equal, so each one scans. The cap keeps scans
// to the head of the support order, which stays in the CPU caches: scans
// of tens of thousands of records (support 2 on treebase and deep) are
// bound by random reads of the mapped file, and their latency followed
// the host's memory contention from one second to the next. The serve cache
// keeps every answered listing, and a slow run answers fewer of them, so
// pages are kept short: the cached bodies then hardly move the serving
// process's peak RSS.
const (
	zipfS        = 1.1
	freqScanCap  = 1000
	maxFreqLimit = 20
	nSupport     = 50000
	nFrequent    = 4 * serve.DefaultCacheEntries
)

// labelsByUse returns the index's labels ranked by the number of records
// that name them, most used first; equal counts are in a seeded order.
func labelsByUse(ref *store.Mapped, rng *rand.Rand) []string {
	uses := make(map[string]int)
	for rec, n := 0, ref.Len(); rec < n; rec++ {
		k := ref.PairAt(rec).Key
		uses[k.A]++
		uses[k.B]++
	}
	labels := make([]string, 0, len(uses))
	for l := range uses {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	rng.Shuffle(len(labels), func(i, j int) { labels[i], labels[j] = labels[j], labels[i] })
	sort.SliceStable(labels, func(i, j int) bool { return uses[labels[i]] > uses[labels[j]] })
	return labels
}

// makeProbes draws the serve phase's queries from the reference index.
// With deep set, lookups only name distances past core.MaxPackedDist.
func makeProbes(ref *store.Mapped, seed int64, deep bool) (*probeSet, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	labels := labelsByUse(ref, rng)
	if len(labels) < 2 {
		return nil, fmt.Errorf("index names %d labels", len(labels))
	}
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(labels)-1))
	lo, hi := core.Dist(0), ref.Options().MaxDist
	if deep {
		lo = core.MaxPackedDist + 1
	}
	ps := &probeSet{Support: make([]supportProbe, nSupport), Frequent: make([]frequentProbe, nFrequent)}
	for i := range ps.Support {
		ps.Support[i] = supportProbe{
			L1: labels[zipf.Uint64()],
			L2: labels[zipf.Uint64()],
			D:  lo + core.Dist(rng.Intn(int(hi-lo)+1)),
		}
	}
	scan := min(ref.Len(), freqScanCap)
	seen := make(map[frequentProbe]bool, nFrequent)
	for i := range ps.Frequent {
		q := frequentProbe{
			MinSup:  max(int(ref.SupportAt(ref.PermAt(rng.Intn(scan)))), 1),
			MaxDist: core.DistWild,
			Limit:   1 + rng.Intn(maxFreqLimit),
		}
		if d := rng.Intn(int(hi) + 2); d <= int(hi) {
			q.MaxDist = core.Dist(d)
		}
		// Every listing is a distinct cache key. The leg cycles through
		// nFrequent of them, far more than the cache holds, so no listing
		// is ever answered from the cache, whatever the seed. Supports on
		// treebase and deep take fewer than ten values, so draws collide
		// often; a colliding one gets a filter past the index's MaxDist.
		// That filter passes every record, so the listing scans and
		// answers as an unfiltered one does, and its page stays short.
		for seen[q] {
			if q.MaxDist.IsWild() || q.MaxDist < hi {
				q.MaxDist = hi
			}
			q.MaxDist++
		}
		seen[q] = true
		ps.Frequent[i] = q
	}
	// Later draws collide more often. The leg sends listings in order,
	// so the shuffle keeps its mix the same from start to end.
	rng.Shuffle(len(ps.Frequent), func(i, j int) { ps.Frequent[i], ps.Frequent[j] = ps.Frequent[j], ps.Frequent[i] })
	return ps, nil
}

func (p supportProbe) path() string {
	v := url.Values{"l1": {p.L1}, "l2": {p.L2}, "dist": {p.D.String()}}
	return "/v1/support?" + v.Encode()
}

func (q frequentProbe) path() string {
	v := url.Values{"minsup": {strconv.Itoa(q.MinSup)}, "limit": {strconv.Itoa(q.Limit)}}
	if !q.MaxDist.IsWild() {
		v.Set("maxdist", q.MaxDist.String())
	}
	return "/v1/frequent?" + v.Encode()
}

// The response shapes of /v1/support and /v1/frequent, rebuilt here so
// expected bodies come from the reference index alone.
type supportBody struct {
	L1      string    `json:"l1"`
	L2      string    `json:"l2"`
	Dist    core.Dist `json:"dist"`
	Support int       `json:"support"`
	Trees   int       `json:"trees"`
}

type pairBody struct {
	L1      string    `json:"l1"`
	L2      string    `json:"l2"`
	Dist    core.Dist `json:"dist"`
	Support int       `json:"support"`
}

type frequentBody struct {
	MinSup  int        `json:"minsup"`
	MaxDist core.Dist  `json:"maxdist"`
	Trees   int        `json:"trees"`
	Count   int        `json:"count"`
	Pairs   []pairBody `json:"pairs"`
}

func marshalBody(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the body types above always marshal
	}
	return append(b, '\n')
}

// expectSupport is the /v1/support body for p, from the reference.
func expectSupport(ref *store.Mapped, p supportProbe) []byte {
	k := core.NewKey(p.L1, p.L2, p.D)
	return marshalBody(supportBody{L1: k.A, L2: k.B, Dist: k.D, Support: int(ref.Support(p.L1, p.L2, p.D)), Trees: ref.Trees()})
}

// expectFrequent is the /v1/frequent body for q, from a walk of the
// reference's support-descending permutation.
func expectFrequent(ref *store.Mapped, q frequentProbe) []byte {
	body := frequentBody{MinSup: q.MinSup, MaxDist: q.MaxDist, Trees: ref.Trees(), Pairs: []pairBody{}}
	for i, n := 0, ref.Len(); i < n; i++ {
		rec := ref.PermAt(i)
		if ref.SupportAt(rec) < int64(q.MinSup) {
			break
		}
		if !q.MaxDist.IsWild() && ref.DistAt(rec) > q.MaxDist {
			continue
		}
		body.Count++
		if len(body.Pairs) < q.Limit {
			fp := ref.PairAt(rec)
			body.Pairs = append(body.Pairs, pairBody{L1: fp.Key.A, L2: fp.Key.B, Dist: fp.Key.D, Support: fp.Support})
		}
	}
	return marshalBody(body)
}

// sample is one answered request kept for the correctness check.
type sample struct {
	Kind  string `json:"kind"` // "support" or "frequent"
	Probe int    `json:"probe"`
	Body  []byte `json:"body"`
}

// verifySamples counts the samples whose body differs from the
// reference's answer.
func verifySamples(ref *store.Mapped, ps *probeSet, samples []sample) int {
	bad := 0
	for _, s := range samples {
		var want []byte
		switch s.Kind {
		case "support":
			want = expectSupport(ref, ps.Support[s.Probe])
		case "frequent":
			want = expectFrequent(ref, ps.Frequent[s.Probe])
		}
		if !bytes.Equal(want, s.Body) {
			bad++
		}
	}
	return bad
}
