package pressio

import (
	"hash/maphash"
	"math"
	"sync"
	"sync/atomic"

	"fraz/internal/metrics"
)

// This file implements the shared compressor-evaluation cache. FRaZ's
// region-parallel search (paper Algorithm 2) runs K overlapping searches of
// the same buffer concurrently, and its trust-region refinement clusters
// evaluations ever more tightly around the incumbent best bound — both
// produce near-identical error bounds whose compressions are byte-for-byte
// redundant. The cache memoises the (ratio, size) outcome per (codec,
// dataset fingerprint, quantized bound), and deduplicates in-flight
// evaluations so two regions asking for the same bound at the same time
// trigger exactly one compression.

// quantDropBits is the number of low-order float64 mantissa bits cleared by
// QuantizeBound: 44 of the 52, keeping 8. Bounds within one part in 2^8
// (≈0.4%) of each other therefore share a cache slot — far finer than the
// ratio changes the 10% default acceptance band can resolve, but coarse
// enough that a converging trust region collides with its own trail and
// with the overlapping neighbour region's samples.
const quantDropBits = 44

// QuantizeBound snaps a positive error bound down onto a logarithmic grid
// with ≈0.4% relative spacing. Bounds that snap to the same grid point share
// one cache slot, and the grid point is the bound they are all evaluated at
// (Param.Slot). Non-positive and non-finite bounds are returned unchanged.
func QuantizeBound(bound float64) float64 {
	if !(bound > 0) || math.IsInf(bound, 0) {
		return bound
	}
	return math.Float64frombits(math.Float64bits(bound) &^ (1<<quantDropBits - 1))
}

// Slot returns the value every request that shares v's cache slot is
// evaluated at: v snapped to the codec's domain, then down onto the
// QuantizeBound grid, and back up to Lo where that took an admissible v below
// the domain (a v below Lo stays what it is, for the codec to reject). It
// never exceeds Snap(v), so an evaluation never runs looser than the caller
// asked (a user's maximum error holds), and because it depends on v alone,
// what a slot holds does not depend on which request filled it.
func (p Param) Slot(v float64) float64 {
	v = p.Snap(v)
	return math.Max(QuantizeBound(v), math.Min(v, p.Lo))
}

// fingerprintSeed keys every Fingerprint this process takes. A fingerprint
// is compared only with others of the same process — the cache lives and
// dies with it — and is never stored (archives and frazd's content ids use
// SHA-256), so a random seed per process is safe.
var fingerprintSeed = maphash.MakeSeed()

// Fingerprint hashes a buffer's element type, shape, and contents into the
// cache-key component that distinguishes datasets. Two buffers with equal
// fingerprints share cached evaluations, so the hash covers every bit of
// every value — and the dtype, so a float32 field can never answer for the
// float64 field with the same bit pattern. The contents go through one
// maphash.Bytes call over the buffer's zero-copy byte view, which runs at
// memory speed and allocates nothing (pinned by TestFingerprintAllocFree);
// the dtype, the rank and each extent are then folded in one word at a
// time, an FNV-1a step per word. Hashing in host byte order is safe for
// the same reason the random seed is.
func Fingerprint(buf Buffer) uint64 {
	const prime = 1099511628211 // FNV-1a's 64-bit prime
	h := maphash.Bytes(fingerprintSeed, buf.RawBytes())
	h = (h ^ uint64(buf.DType())) * prime
	h = (h ^ uint64(len(buf.Shape))) * prime
	for _, e := range buf.Shape {
		h = (h ^ uint64(e)) * prime
	}
	return h
}

// CacheKey identifies one memoised evaluation.
type CacheKey struct {
	// Codec is the compressor name the bound was evaluated with.
	Codec string
	// Fingerprint identifies the dataset (see Fingerprint).
	Fingerprint uint64
	// Bound is the float64 bit pattern of the quantized bound.
	Bound uint64
	// Full marks entries that carry the complete metric report of the round
	// trip (quality-objective evaluations) rather than just the compressed
	// size. The two live in separate slots: a full evaluation costs a
	// reconstruction and a report a ratio-only entry never paid for, so one
	// must not answer for the other.
	Full bool
}

// CacheEntry is one memoised evaluation: the bound the compressor ran at —
// the slot's own (Param.Slot), so the reported ratio is exact for the
// reported bound whichever request in the slot asked — and its outcome.
type CacheEntry struct {
	// Bound is the error bound the entry was measured at.
	Bound float64
	// Ratio is the compression ratio achieved at Bound.
	Ratio float64
	// Size is the compressed size in bytes at Bound.
	Size int
	// Report is the full quality report of the round trip, measured on the
	// encoder's reconstruction for a codec that Reconstructs and on the
	// decoded stream otherwise; only entries recorded through Evaluator.Full
	// carry one.
	Report metrics.Report
}

// cacheSlot is a single-flight slot: the first requester computes while
// later ones wait on done. complete is set (under the cache mutex) once the
// computation finished, marking the slot safe to evict.
type cacheSlot struct {
	done     chan struct{}
	complete bool
	entry    CacheEntry
	err      error
}

// DefaultMaxEntries bounds the cache size. Long-lived tuners on streaming
// data accumulate entries for fingerprints that never recur, so at capacity
// the oldest completed entries are evicted first — a bounded memory
// footprint traded against an occasional re-warm of old bounds.
const DefaultMaxEntries = 1 << 16

// Cache memoises compressor evaluations. It is safe for concurrent use; the
// zero value is not ready — use NewCache or NewCacheSized.
type Cache struct {
	mu      sync.Mutex
	m       map[CacheKey]*cacheSlot
	maxSize int
	// order records completed entries oldest-first for the coarse FIFO
	// eviction sweep. It may hold stale keys (re-inserted after an earlier
	// eviction); the sweep drops those as it scans.
	order     []CacheKey
	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

// NewCache returns an empty evaluation cache holding at most
// DefaultMaxEntries completed evaluations.
func NewCache() *Cache {
	return NewCacheSized(DefaultMaxEntries)
}

// NewCacheSized returns an empty evaluation cache holding at most maxEntries
// completed evaluations (<= 0 selects DefaultMaxEntries). At capacity the
// oldest completed entries are evicted first, so a long tuning run over
// streaming fields — whose fingerprints never recur — holds bounded memory
// no matter how many fields pass through.
func NewCacheSized(maxEntries int) *Cache {
	if maxEntries <= 0 {
		maxEntries = DefaultMaxEntries
	}
	return &Cache{m: make(map[CacheKey]*cacheSlot), maxSize: maxEntries}
}

// do returns the memoised outcome for key, computing it with fn exactly once
// across all concurrent callers. The boolean reports whether the result came
// from the cache (including waiting on another caller's in-flight
// computation — the compression was saved either way). Failed evaluations
// are not retained: concurrent waiters receive the in-flight error, but the
// slot is released so later callers retry instead of being served a
// poisoned entry for the cache's lifetime.
func (c *Cache) do(key CacheKey, fn func() (CacheEntry, error)) (entry CacheEntry, hit bool, err error) {
	c.mu.Lock()
	if s, ok := c.m[key]; ok {
		c.mu.Unlock()
		<-s.done
		if s.err != nil {
			// Waiting on an in-flight evaluation that failed saved nothing:
			// no usable (ratio, size) came back, so it must not be counted
			// as a hit (it would inflate the savings every Result reports).
			c.misses.Add(1)
			return s.entry, false, s.err
		}
		c.hits.Add(1)
		return s.entry, true, s.err
	}
	if len(c.m) >= c.maxSize {
		c.evictOldestLocked()
	}
	s := &cacheSlot{done: make(chan struct{})}
	c.m[key] = s
	c.mu.Unlock()
	c.misses.Add(1)
	s.entry, s.err = fn()
	c.mu.Lock()
	s.complete = true
	if s.err != nil {
		delete(c.m, key)
	} else {
		c.order = append(c.order, key)
	}
	c.mu.Unlock()
	close(s.done)
	return s.entry, false, s.err
}

// evictOldestLocked frees room for one insertion by deleting completed
// entries oldest-first (coarse FIFO: insertion order, no access recency).
// In-flight slots are never evicted — their waiters must still be answered
// through the map — and stale order entries (keys already replaced by a
// newer insertion of the same key) are dropped as the sweep passes them.
// Called with c.mu held.
func (c *Cache) evictOldestLocked() {
	for len(c.order) > 0 && len(c.m) >= c.maxSize {
		k := c.order[0]
		c.order = c.order[1:]
		s, ok := c.m[k]
		if !ok || !s.complete {
			continue
		}
		delete(c.m, k)
		c.evictions.Add(1)
	}
}

// Stats reports the cumulative hit, miss, and eviction counts across all
// users of the cache. A hit is an evaluation served a usable result without
// invoking the compressor; failed evaluations — including waits on an
// in-flight evaluation that failed — count as misses. Evictions count the
// completed entries discarded by the FIFO sweep to stay under the size cap.
func (c *Cache) Stats() (hits, misses, evictions uint64) {
	return c.hits.Load(), c.misses.Load(), c.evictions.Load()
}

// Len reports the number of distinct evaluations stored.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Evaluator performs cached evaluations of one (compressor, buffer) pair. It
// computes the buffer fingerprint once at construction and tells its caller
// which evaluations the cache answered, so a tuning run can report savings
// even when the underlying Cache is shared with other runs, and hands over
// the stream of each it did not, for the winner to be sealed as it is. It is
// safe for concurrent use by the parallel region searches.
type Evaluator struct {
	cache *Cache
	comp  Compressor
	codec *Codec
	buf   Buffer
	fp    uint64
}

// NewEvaluator binds a cache to one compressor/buffer pair. A nil cache is
// allowed and disables memoisation (every Ratio call compresses).
func NewEvaluator(cache *Cache, comp Compressor, buf Buffer) *Evaluator {
	e := &Evaluator{cache: cache, comp: comp, codec: comp.Descriptor(), buf: buf}
	if cache != nil {
		e.fp = Fingerprint(buf)
	}
	return e
}

// Evaluate is the evaluation every entry point shares. The compressor runs
// at the requested bound's slot value (Param.Slot) — on an integer domain 7.6
// and 8.2 are one evaluation, reported at 8; elsewhere the value is at most
// the quantization spacing (≈0.4%) below the request — with or without a
// cache, so the entry a request receives is the same whether it filled the
// slot, found it filled by a neighbouring request, or by an earlier run. hit
// reports which; so does stream, the caller's compressed buffer when this call
// ran the compressor and nil when the cache answered — the cache keeps no
// streams, which would pin up to DefaultMaxEntries compressed buffers. full
// selects the round trip with its quality report, kept in its own slots.
func (e *Evaluator) Evaluate(bound float64, full bool) (entry CacheEntry, stream []byte, hit bool, err error) {
	bound = e.codec.Param.Slot(bound)
	run := func() (entry CacheEntry, err error) {
		entry, stream, err = evaluate(e.comp, e.buf, bound, full)
		return entry, err
	}
	if e.cache == nil {
		entry, err = run()
		return entry, stream, false, err
	}
	key := CacheKey{Codec: e.codec.Name, Fingerprint: e.fp, Bound: math.Float64bits(bound), Full: full}
	entry, hit, err = e.cache.do(key, run)
	return entry, stream, hit, err
}

// Ratio evaluates the compression ratio at the given bound, serving repeats
// from the cache. The returned bound is the one the ratio was measured at.
func (e *Evaluator) Ratio(bound float64) (ratio float64, size int, evaluated float64, err error) {
	entry, _, _, err := e.Evaluate(bound, false)
	return entry.Ratio, entry.Size, entry.Bound, err
}

// Full evaluates the complete quality report of the round trip at the given
// bound, serving repeats from the cache. The reconstruction it reports on is
// the encoder's own for a codec that Reconstructs (no decode runs) and the
// decoded stream otherwise. Quality-objective searches call this at every
// iteration; without the cache each probe of a revisited bound would
// redundantly re-run the whole round trip.
func (e *Evaluator) Full(bound float64) (rep metrics.Report, evaluated float64, err error) {
	entry, _, _, err := e.Evaluate(bound, true)
	return entry.Report, entry.Bound, err
}
