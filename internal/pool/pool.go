// Package pool provides size-bucketed free lists for the scratch slices the
// hot paths burn through inside one call: a codec's reconstruction and code
// working sets, szx's byte planes, the Huffman stage's symbol tables, the
// lossless codec's byte staging. Each element type keeps one sync.Pool per power-of-two
// capacity class, so a Get is answered by a slice whose capacity is within
// 2x of the request and a search that evaluates one codec many times reuses
// its scratch instead of allocating it per evaluation. The DEFLATE writers
// of the codecs' dictionary stage are kept here too (GetFlateWriter).
//
// There is one accessor pair, Get[T] and Put[T], generic over the pooled
// element types (Elem). The kernels are generic over their element type, so
// they pass their own type parameter straight through — pool.Get[T](n) in
// sz's encoder over grid.Float — and nothing above this package matches a
// width to a free list.
//
// The rule: scratch is borrowed, results are owned. What Get (or
// GetFlateWriter) returns is assigned to a local variable and released by a
// defer in the function that got it — `defer pool.Put(v)`, or a Put inside a
// deferred closure when the variable may be re-pointed by append — and by
// nothing else. It is never returned, never stored where it outlives the
// call, and no function Puts what it did not Get: anything a function hands
// back to its caller is a plain allocation, so no capacity class or stale
// neighbour ever shows through an API. frazlint's poolcheck enforces exactly
// this, syntactically. Slices returned by Get carry arbitrary stale
// contents; callers must fully overwrite the length they asked for.
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

// Elem lists the element types that have a free list, one per scratch class
// a codec burns through: staging bytes and szx's byte planes, sz's
// reconstruction at either width and mgard's float64 working field, the
// quantisation codes of sz and mgard and the Huffman stage's outlier
// symbols (int32), and the Huffman stage's dense symbol table (uint64). A
// type earns its place here by having a caller.
type Elem interface {
	byte | int32 | uint64 | float32 | float64
}

var (
	bytePool    slicePool[byte]
	int32Pool   slicePool[int32]
	uint64Pool  slicePool[uint64]
	float32Pool slicePool[float32]
	float64Pool slicePool[float64]
)

// classOf returns T's free list. Go has no generic package variable, so the
// element type is matched here, once, for every accessor.
func classOf[T Elem]() *slicePool[T] {
	var p any
	switch any((*T)(nil)).(type) {
	case *byte:
		p = &bytePool
	case *int32:
		p = &int32Pool
	case *uint64:
		p = &uint64Pool
	case *float32:
		p = &float32Pool
	case *float64:
		p = &float64Pool
	}
	return p.(*slicePool[T])
}

// Get returns a slice of n elements with arbitrary contents. A caller that
// is itself generic over the element type (a kernel over grid.Float)
// instantiates it with its own parameter, so no layer above the pool spells
// out the element types again.
func Get[T Elem](n int) []T { return classOf[T]().get(n) }

// Put parks a slice from Get for reuse (or the array append moved it to);
// the caller must not touch it again.
func Put[T Elem](s []T) { classOf[T]().put(s) }

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
