// Package a exercises poolcheck: each function is one lifecycle scenario,
// flagged lines carry want comments, and the rest must stay silent.
package a

import "fraz/internal/pool"

// --- correct lifecycles: no diagnostics ---

func putBeforeReturn(n int) int {
	buf := pool.Get[byte](n)
	s := len(buf)
	pool.Put(buf)
	return s
}

func deferredPut(n int) int {
	buf := pool.Get[float64](n)
	defer pool.Put(buf)
	return len(buf)
}

func deferredClosurePut(n int) int {
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

func ownershipByReturn(n int) []byte {
	buf := pool.Get[byte](n)
	return buf
}

func getInReturn(n int) []byte {
	return pool.Get[byte](n)
}

func doneGuard(n int, fail bool) ([]float32, error) {
	out := pool.Get[float32](n)
	done := false
	defer func() {
		if !done {
			pool.Put(out)
		}
	}()
	if fail {
		return nil, errFail
	}
	done = true
	return out, nil
}

func putOnBothBranches(n int, cond bool) int {
	buf := pool.Get[int32](n)
	if cond {
		pool.Put(buf)
		return 1
	}
	pool.Put(buf)
	return 0
}

type writer struct {
	buf []byte
}

func structFieldLifecycle(n int) int {
	w := writer{buf: pool.Get[byte](n)[:0]}
	w.buf = append(w.buf, 0xAB)
	s := len(w.buf)
	pool.Put(w.buf)
	return s
}

// The kernels are generic over their element type and call the generic
// accessors with their own type parameter; a get and a put spelled that way
// (inferred, or explicitly instantiated) must be seen like any other.

func genericLifecycle[T pool.Elem](n int) T {
	recon := pool.Get[T](n)
	defer pool.Put[T](recon)
	return recon[0]
}

func escapeToClosure(n int) func() {
	buf := pool.Get[byte](n)
	return func() { pool.Put(buf) } // custody leaves with the closure
}

func custodyTransfer(n int) []byte {
	buf := pool.Get[byte](n)
	other := buf // the second name owns it now; tracking stops
	return other
}

// --- violations ---

func leakOnEarlyReturn(n int) ([]byte, error) {
	buf := pool.Get[byte](n)
	if n > 1024 {
		return nil, errFail // want `pooled buffer buf \(acquired at line \d+\) is not put on this return path`
	}
	pool.Put(buf)
	return nil, nil
}

func leakOnFallthrough(n int) {
	buf := pool.Get[float64](n)
	buf[0] = 1
} // want `pooled buffer buf \(acquired at line \d+\) is not put on this return path`

func leakOneBranchMissing(n int, cond bool) int {
	buf := pool.Get[byte](n)
	if cond {
		pool.Put(buf)
	}
	return n // want `pooled buffer buf \(acquired at line \d+\) is not put on this return path`
}

func doublePut(n int) {
	buf := pool.Get[byte](n)
	pool.Put(buf)
	pool.Put(buf) // want `double put of pooled buffer buf`
}

func putAfterDefer(n int) {
	buf := pool.Get[uint64](n)
	defer pool.Put(buf)
	pool.Put(buf) // want `put of pooled buffer buf that is already put by a defer`
}

func putOfReslice(n int) {
	buf := pool.Get[byte](n)
	pool.Put(buf[:4]) // want `put of a reslice of pooled buffer buf`
	pool.Put(buf)
}

func putOfAlias(n int) {
	buf := pool.Get[int32](n)
	bits := buf[:n/2]
	pool.Put(bits) // want `put of bits, a reslice alias of pooled buffer buf`
	pool.Put(buf)
}

func genericLeak[T pool.Elem](n int, fail bool) error {
	buf := pool.Get[T](n)
	if fail {
		return errFail // want `pooled buffer buf \(acquired at line \d+\) is not put on this return path`
	}
	pool.Put(buf)
	return nil
}

func genericDoublePut[T pool.Elem](n int) {
	buf := pool.Get[T](n)
	pool.Put(buf)
	pool.Put[T](buf) // want `double put of pooled buffer buf`
}

func unassignedGet(n int) {
	pool.Get[byte](n) // want `pooled Get result is neither stored in a trackable variable nor returned`
}

var errFail = errOf("fail")

type errOf string

func (e errOf) Error() string { return string(e) }
