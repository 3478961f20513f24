// Package a exercises poolcheck: one silent function per borrowing idiom in
// the tree, one flagged function per way of breaking the rule.
package a

import (
	"bytes"

	"fraz/internal/pool"
)

// --- borrows: no diagnostics ---

func deferredPut(n int) int {
	buf := pool.Get[float64](n)
	defer pool.Put(buf)
	return len(buf)
}

func emptyAtAcquisition(n int) int {
	raw := pool.Get[byte](n)[:0]
	defer pool.Put(raw)
	raw = append(raw, 1)
	return len(raw)
}

// The closure releases whichever backing arrays the locals hold after
// append growth.
func deferredClosure(n int) int {
	kept := pool.Get[byte](n)[:0]
	planes := pool.Get[byte](n)[:0]
	defer func() {
		pool.Put(kept)
		pool.Put(planes)
	}()
	kept = append(kept, 1)
	planes = append(planes, 2)
	return len(kept) + len(planes)
}

// The kernels are generic over their element type and call the accessors
// with their own type parameter, inferred or explicitly instantiated.
func generic[T pool.Elem](n int) T {
	recon := pool.Get[T](n)
	defer pool.Put[T](recon)
	return recon[0]
}

func flateWriter(p []byte) (int, error) {
	var out bytes.Buffer
	fw := pool.GetFlateWriter(&out)
	defer pool.PutFlateWriter(fw)
	if _, err := fw.Write(p); err != nil {
		return 0, err
	}
	return out.Len(), fw.Close()
}

// A function literal is a function of its own: it borrows and releases
// inside itself.
func perItem(n int) func() int {
	return func() int {
		buf := pool.Get[int32](n)
		defer pool.Put(buf)
		return len(buf)
	}
}

// --- violations ---

func neverReleased(n int) {
	buf := pool.Get[float64](n) // want `pooled buffer buf has no deferred release in the function that got it`
	buf[0] = 1
}

func releaseNotDeferred(n int) int {
	buf := pool.Get[byte](n)
	s := len(buf)
	pool.Put(buf) // want `release of pooled buffer buf is not deferred`
	return s
}

func releaseOfForeign(p []byte) {
	defer pool.Put(p) // want `release of p, which this function did not get from the pool`
}

type writer struct{ buf []byte }

func releaseOfField(n int) {
	w := writer{buf: pool.Get[byte](n)} // want `pool.Get result is not assigned to a local variable`
	defer pool.Put(w.buf)               // want `release of w.buf, which this function did not get from the pool`
}

func returned(n int) []byte {
	buf := pool.Get[byte](n)
	defer pool.Put(buf)
	return buf[:n/2] // want `pooled buffer buf is returned`
}

func releaseOfReslice(n int) {
	buf := pool.Get[byte](n)
	defer pool.Put(buf[:4]) // want `release of a reslice of pooled buffer buf`
}

func releasedTwice[T pool.Elem](n int) {
	buf := pool.Get[T](n)
	defer pool.Put(buf)
	defer pool.Put[T](buf) // want `pooled buffer buf is released twice`
}

// The closure is not deferred, so it is a function of its own and buf is not
// its to release.
func releaseInClosure(n int) func() {
	buf := pool.Get[byte](n) // want `pooled buffer buf has no deferred release in the function that got it`
	return func() {
		pool.Put(buf) // want `release of buf, which this function did not get from the pool`
	}
}

func unbound(n int) {
	pool.Get[byte](n) // want `pool.Get result is not assigned to a local variable`
}

// A release reached through a function value is a release no function can
// be seen to defer.
var giveBack = pool.Put[byte] // want `pool.Put is used as a value`
