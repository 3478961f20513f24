// Package pool provides size-bucketed free lists for the scratch slices the
// hot paths burn through: per-block compressed payloads on the blocked seal
// path, per-block decode buffers on the blocked open path, container header
// staging, and codec-internal bit scratch. Each element type keeps one
// sync.Pool per power-of-two capacity class, so a Get is answered by a slice
// whose capacity is within 2x of the request and a steady-state pipeline
// recycles instead of allocating. The DEFLATE writers of the codecs'
// dictionary stage are recycled here too (GetFlateWriter).
//
// Ownership discipline: a slice handed to Put must not be referenced again
// by the caller — the next Get may hand it to anyone. Slices returned by Get
// carry arbitrary stale contents; callers must fully overwrite the length
// they asked for. It is always safe to Put a slice that did not come from
// Get (it joins the free list) or to never Put one that did (it falls to the
// garbage collector).
package pool

import (
	"compress/flate"
	"io"
	"math/bits"
	"sync"
)

// minBucket and maxBucket bound the capacity classes: below 1<<minBucket
// pooling costs more than the allocation it saves, above 1<<maxBucket (64 Mi
// elements) a slice parked in a pool pins too much memory between GCs.
const (
	minBucket = 6
	maxBucket = 26
)

// slicePool is a set of sync.Pools bucketed by power-of-two capacity.
type slicePool[T any] struct {
	buckets [maxBucket + 1]sync.Pool
}

// bucketFor returns the class whose slices have capacity >= n, or -1 when n
// is outside the pooled range.
func bucketFor(n int) int {
	if n <= 0 || n > 1<<maxBucket {
		return -1
	}
	b := bits.Len(uint(n - 1)) // ceil(log2 n)
	if b < minBucket {
		b = minBucket
	}
	return b
}

// get returns a slice of length n with arbitrary contents.
func (p *slicePool[T]) get(n int) []T {
	b := bucketFor(n)
	if b < 0 {
		return make([]T, n)
	}
	if v := p.buckets[b].Get(); v != nil {
		s := v.([]T)
		return s[:n]
	}
	return make([]T, n, 1<<b)
}

// put parks a slice for reuse. Slices outside the pooled capacity range, or
// smaller than their class promises, are dropped.
func (p *slicePool[T]) put(s []T) {
	c := cap(s)
	if c < 1<<minBucket || c > 1<<maxBucket {
		return
	}
	// File under the largest class the capacity fully covers, so a get from
	// that class can always slice to its requested length.
	b := bits.Len(uint(c)) - 1 // floor(log2 c)
	p.buckets[b].Put(s[:0:c])
}

var (
	bytesPool slicePool[byte]
	f32Pool   slicePool[float32]
	f64Pool   slicePool[float64]
	u32Pool   slicePool[uint32]
	u64Pool   slicePool[uint64]
	i32Pool   slicePool[int32]
	i64Pool   slicePool[int64]
)

// GetBytes returns a byte slice of length n with arbitrary contents.
func GetBytes(n int) []byte { return bytesPool.get(n) }

// PutBytes parks a byte slice for reuse; the caller must not touch it again.
func PutBytes(s []byte) { bytesPool.put(s) }

// GetFloat32 returns a float32 slice of length n with arbitrary contents.
func GetFloat32(n int) []float32 { return f32Pool.get(n) }

// PutFloat32 parks a float32 slice for reuse.
func PutFloat32(s []float32) { f32Pool.put(s) }

// GetFloat64 returns a float64 slice of length n with arbitrary contents.
func GetFloat64(n int) []float64 { return f64Pool.get(n) }

// PutFloat64 parks a float64 slice for reuse.
func PutFloat64(s []float64) { f64Pool.put(s) }

// GetUint32 returns a uint32 slice of length n with arbitrary contents.
func GetUint32(n int) []uint32 { return u32Pool.get(n) }

// PutUint32 parks a uint32 slice for reuse.
func PutUint32(s []uint32) { u32Pool.put(s) }

// GetInt32 returns an int32 slice of length n with arbitrary contents.
func GetInt32(n int) []int32 { return i32Pool.get(n) }

// PutInt32 parks an int32 slice for reuse.
func PutInt32(s []int32) { i32Pool.put(s) }

// GetUint64 returns a uint64 slice of length n with arbitrary contents.
func GetUint64(n int) []uint64 { return u64Pool.get(n) }

// PutUint64 parks a uint64 slice for reuse.
func PutUint64(s []uint64) { u64Pool.put(s) }

// GetInt64 returns an int64 slice of length n with arbitrary contents.
func GetInt64(n int) []int64 { return i64Pool.get(n) }

// PutInt64 parks an int64 slice for reuse.
func PutInt64(s []int64) { i64Pool.put(s) }

// flateWriters recycles the DEFLATE state of the codecs' dictionary stage. A
// flate.Writer at BestSpeed is 1.2 MB that NewWriter allocates and clears;
// the search calls the stage once per evaluation, so without the pool every
// candidate bound pays for that again. A reset writer produces the bytes a
// new one would.
var flateWriters = sync.Pool{New: func() any {
	fw, err := flate.NewWriter(io.Discard, flate.BestSpeed)
	if err != nil {
		panic(err) // the level constant is valid; NewWriter cannot fail on it
	}
	return fw
}}

// GetFlateWriter returns a BestSpeed DEFLATE writer reset to write to w.
func GetFlateWriter(w io.Writer) *flate.Writer {
	fw := flateWriters.Get().(*flate.Writer)
	fw.Reset(w)
	return fw
}

// PutFlateWriter parks a writer from GetFlateWriter for reuse, whether or
// not it was closed.
func PutFlateWriter(fw *flate.Writer) { flateWriters.Put(fw) }
