package pressio

import (
	"unsafe"

	"fraz/internal/container"
	"fraz/internal/pool"
)

// RawBytes returns the buffer's contents as a byte view over the same
// backing memory — no copy is made. The view is valid only as long as the
// buffer's data is, and its byte order is the host's, so it is strictly
// process-local: fingerprinting and in-memory size accounting may use it,
// serialization must not. A nil slice is returned for an empty buffer.
func (b Buffer) RawBytes() []byte {
	if b.dtype == container.Float64 {
		if len(b.f64) == 0 {
			return nil
		}
		return unsafe.Slice((*byte)(unsafe.Pointer(&b.f64[0])), len(b.f64)*8)
	}
	if len(b.f32) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&b.f32[0])), len(b.f32)*4)
}

// recycle parks the buffer's backing slice in the element pool. Only for
// buffers whose data is provably dead — the blocked open path calls it after
// scattering a block's decode buffer into the output field. The Compressor
// contract makes this safe: Decompress returns freshly allocated data, so
// the slice aliases nothing the codec or caller retains.
func (b Buffer) recycle() {
	// One of the two views is nil, and a nil slice is dropped by Put.
	pool.Put(b.f32)
	pool.Put(b.f64)
}
