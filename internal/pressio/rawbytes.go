package pressio

import (
	"unsafe"

	"fraz/internal/container"
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
