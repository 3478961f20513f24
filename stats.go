package fraz

import "fraz/internal/pressio"

// CacheStats is a point-in-time snapshot of an evaluation cache: how many
// tuning evaluations were answered from memory (Hits), how many had to run
// the compressor (Misses — exactly the number of compressor invocations the
// cache recorded), how many completed entries the FIFO sweep discarded to
// stay under the size cap (Evictions), and how many distinct evaluations are
// resident right now (Entries).
type CacheStats struct {
	// Hits counts evaluations served a usable result without invoking the
	// compressor, including waits on another caller's identical in-flight
	// evaluation.
	Hits uint64
	// Misses counts evaluations that invoked the compressor. Failed
	// evaluations — including waits on an in-flight evaluation that failed —
	// count here, never as hits.
	Misses uint64
	// Evictions counts completed entries discarded to stay under the cache's
	// size cap.
	Evictions uint64
	// Evaluations is the number of compressor invocations performed on the
	// cache's behalf: one per miss.
	Evaluations uint64
	// Entries is the number of distinct evaluations currently resident.
	Entries int
}

// HitRate is Hits over Hits+Misses, 0 when the cache has never been asked.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// EvalCache is a shareable evaluation cache: the memo of (codec, data
// fingerprint, quantized bound) → (ratio, size, quality report) triples that
// makes repeated tuning of the same data cheap. Every Client owns a private
// one by default; build one explicitly with NewEvalCache and pass it to
// several clients through the SharedCache option to pool their evaluations —
// the shape a long-running service wants, where many requests (even from
// different tenants) re-tune the same fields. An EvalCache is safe for
// concurrent use by any number of clients.
type EvalCache struct {
	c *pressio.Cache
}

// NewEvalCache returns an empty evaluation cache holding at most maxEntries
// completed evaluations (<= 0 selects the default, 65536). At capacity the
// oldest entries are evicted first, so a cache fed an unbounded stream of
// distinct fields holds bounded memory.
func NewEvalCache(maxEntries int) *EvalCache {
	return &EvalCache{c: pressio.NewCacheSized(maxEntries)}
}

// Stats reports the cache's cumulative hit/miss/eviction counts across every
// client sharing it.
func (e *EvalCache) Stats() CacheStats {
	return cacheStats(e.c)
}

func cacheStats(c *pressio.Cache) CacheStats {
	if c == nil {
		return CacheStats{}
	}
	hits, misses, evictions := c.Stats()
	return CacheStats{
		Hits:        hits,
		Misses:      misses,
		Evictions:   evictions,
		Evaluations: misses,
		Entries:     c.Len(),
	}
}

// Stats reports the evaluation cache behind this client's tuning: cumulative
// hits, misses (= compressor evaluations performed), and evictions. For a
// client built with SharedCache the numbers cover every client sharing the
// cache, not just this one; per-call deltas are on each CompressResult and
// TuneResult (Evaluations, CacheHits). A CodecAuto client's numbers cover
// every candidate's evaluations; a client that never tunes reports what its
// cache holds from others, zeros when the cache is its own.
func (c *Client) Stats() CacheStats {
	return cacheStats(c.cache)
}
