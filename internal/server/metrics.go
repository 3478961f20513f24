package server

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the ops surface's measurement layer: a minimal, stdlib-only
// Prometheus-text-format registry. The server needs a fixed, small set of
// instrument shapes — counters, gauges, and latency histograms with one
// label — and hand-rolling them keeps the binary dependency-free while
// /metrics stays scrapeable by any Prometheus-compatible collector.

// family is a set of instruments of one shape keyed by one pre-rendered
// label set, e.g. `endpoint="compress",code="200"` for a counter
// (atomic.Uint64) or `codec="sz:abs"` for a histogram. The zero value of T
// is a ready instrument.
type family[T any] struct {
	mu sync.Mutex
	m  map[string]*T
}

func (f *family[T]) get(labels string) *T {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.m == nil {
		f.m = make(map[string]*T)
	}
	v, ok := f.m[labels]
	if !ok {
		v = new(T)
		f.m[labels] = v
	}
	return v
}

// each visits the family in label order, so consecutive scrapes diff
// cleanly.
func (f *family[T]) each(visit func(labels string, v *T)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	keys := make([]string, 0, len(f.m))
	for k := range f.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		visit(k, f.m[k])
	}
}

// sealBuckets are the upper bounds (seconds) of the per-codec seal-latency
// histogram: log-spaced from 1ms to 10s, the plausible range from an szx
// seal of a tiny field to a quality-objective tune of a large one.
var sealBuckets = [...]float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// histogram is a Prometheus-style cumulative histogram. The sum is kept as
// float64 bits in an atomic CAS loop so observe stays lock-free.
type histogram struct {
	counts  [len(sealBuckets) + 1]atomic.Uint64 // one per bucket, non-cumulative; rendered cumulatively
	sumBits atomic.Uint64
	count   atomic.Uint64
}

func (h *histogram) observe(v float64) {
	i := sort.SearchFloat64s(sealBuckets[:], v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		sum := math.Float64frombits(old) + v
		if h.sumBits.CompareAndSwap(old, math.Float64bits(sum)) {
			return
		}
	}
}

// serverMetrics is every instrument the server exports.
type serverMetrics struct {
	requests    family[atomic.Uint64] // frazd_requests_total{endpoint,code}
	rejected    family[atomic.Uint64] // frazd_rejected_total{reason}
	bytesIn     atomic.Uint64         // raw field bytes accepted for compression
	bytesSealed atomic.Uint64         // archive bytes produced
	bytesOpened atomic.Uint64         // raw field bytes reconstructed
	sealSeconds family[histogram]     // frazd_seal_seconds{codec}
}

func (m *serverMetrics) observeRequest(endpoint string, code int) {
	m.requests.get(fmt.Sprintf("endpoint=%q,code=\"%d\"", endpoint, code)).Add(1)
}

func (m *serverMetrics) observeRejection(reason string) {
	m.rejected.get(fmt.Sprintf("reason=%q", reason)).Add(1)
}

func (m *serverMetrics) observeSeal(codec string, took time.Duration) {
	m.sealSeconds.get(fmt.Sprintf("codec=%q", codec)).observe(took.Seconds())
}

// counterSamples is a counter family's series, one per label set.
func counterSamples(name string, f *family[atomic.Uint64]) (out []sample) {
	f.each(func(labels string, c *atomic.Uint64) {
		out = append(out, sample{name + "{" + labels + "}", c.Load()})
	})
	return out
}

// histogramSamples renders every histogram of the family the Prometheus
// way: cumulative buckets, then sum and count.
func histogramSamples(name string, f *family[histogram]) (out []sample) {
	f.each(func(labels string, h *histogram) {
		cum := uint64(0)
		for i, le := range sealBuckets {
			cum += h.counts[i].Load()
			out = append(out, sample{fmt.Sprintf("%s_bucket{%s,le=\"%g\"}", name, labels, le), cum})
		}
		cum += h.counts[len(sealBuckets)].Load()
		out = append(out,
			sample{fmt.Sprintf("%s_bucket{%s,le=\"+Inf\"}", name, labels), cum},
			sample{fmt.Sprintf("%s_sum{%s}", name, labels), math.Float64frombits(h.sumBits.Load())},
			sample{fmt.Sprintf("%s_count{%s}", name, labels), h.count.Load()})
	})
	return out
}

// metric is one row of the exposition: a family's name, help and type, and
// its value at scrape time — a number, or the samples of a labelled family.
type metric struct {
	name, help, kind string
	value            any
}

// sample is one series of a labelled family: its full name, suffix and
// labels included, and its value.
type sample struct {
	series string
	value  any
}

// metrics is the table /metrics renders, in exposition order. The gauges
// that live outside serverMetrics (queue depth, in-flight tunes, cache and
// store counters) are read here, at scrape time.
func (s *Server) metrics() []metric {
	cache := s.cache.Stats()
	storeBytes, storeEntries := s.store.stats()
	draining := 0
	if s.draining.Load() {
		draining = 1
	}
	m := &s.met
	return []metric{
		{"frazd_tunes_in_flight", "Requests currently holding a worker slot.", "gauge", len(s.adm.slots)},
		{"frazd_queue_depth", "Admitted requests waiting for a worker slot.", "gauge", s.adm.queued()},
		{"frazd_draining", "Whether the server is draining (rejecting new work).", "gauge", draining},
		{"frazd_requests_total", "Completed requests by endpoint and status code.", "counter", counterSamples("frazd_requests_total", &m.requests)},
		{"frazd_rejected_total", "Requests rejected before doing work, by reason.", "counter", counterSamples("frazd_rejected_total", &m.rejected)},
		{"frazd_field_bytes_total", "Raw field bytes accepted for compression.", "counter", m.bytesIn.Load()},
		{"frazd_sealed_bytes_total", "Archive bytes produced by seals (rate() of this is bytes sealed per second).", "counter", m.bytesSealed.Load()},
		{"frazd_opened_bytes_total", "Raw field bytes reconstructed by decompressions.", "counter", m.bytesOpened.Load()},
		{"frazd_cache_hits_total", "Evaluation-cache hits across all requests.", "counter", cache.Hits},
		{"frazd_cache_misses_total", "Evaluation-cache misses (compressor evaluations performed).", "counter", cache.Misses},
		{"frazd_cache_evictions_total", "Evaluation-cache entries evicted to stay under the size cap.", "counter", cache.Evictions},
		{"frazd_cache_entries", "Evaluation-cache entries currently resident.", "gauge", cache.Entries},
		{"frazd_cache_hit_rate", "Hits over hits+misses since start.", "gauge", cache.HitRate()},
		{"frazd_archive_store_bytes", "Bytes held by the server-side archive store.", "gauge", storeBytes},
		{"frazd_archive_store_entries", "Archives held by the server-side archive store.", "gauge", storeEntries},
		{"frazd_seal_seconds", "Tune+seal wall time per codec.", "histogram", histogramSamples("frazd_seal_seconds", &m.sealSeconds)},
	}
}

// writeMetrics renders the table in Prometheus text format; %v prints an
// integer as %d would and a float64 in its shortest form, as %g would.
func writeMetrics(w io.Writer, table []metric) {
	for _, m := range table {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", m.name, m.help, m.name, m.kind)
		samples, labelled := m.value.([]sample)
		if !labelled {
			samples = []sample{{m.name, m.value}}
		}
		for _, sm := range samples {
			fmt.Fprintf(w, "%s %v\n", sm.series, sm.value)
		}
	}
}
