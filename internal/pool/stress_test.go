package pool

import (
	"runtime"
	"sync"
	"testing"
)

// TestConcurrentGetPut hammers every element pool from many goroutines
// across several capacity classes at once. Each goroutine stamps its
// buffers with a value derived from its identity and re-checks the stamp
// before releasing: if two goroutines are ever handed the same backing
// array concurrently — the failure mode a broken free list produces — the
// stamps collide and the check fails. Run with -race this also proves the
// pools introduce no unsynchronized sharing.
func TestConcurrentGetPut(t *testing.T) {
	workers := 4 * runtime.GOMAXPROCS(0)
	const rounds = 300
	sizes := []int{1, 64, 100, 1000, 5000}

	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				n := sizes[(id+r)%len(sizes)]
				stampF64 := float64(id*rounds + r)
				stampI64 := int64(id*rounds + r)

				b := Get[byte](n)
				f32 := Get[float32](n)
				f64 := Get[float64](n)
				i64 := Get[int64](n)
				u64 := Get[uint64](n)
				i32 := Get[int32](n)

				for i := range b {
					b[i] = byte(id)
					f32[i] = float32(stampF64)
					f64[i] = stampF64
					i64[i] = stampI64
					u64[i] = uint64(stampI64)
					i32[i] = int32(id)
				}
				// A second batch of gets while the first is still held
				// forces bucket contention before the stamps are checked.
				extra := Get[float64](n)
				for i := range extra {
					extra[i] = -stampF64
				}

				for i := range b {
					if b[i] != byte(id) || f32[i] != float32(stampF64) ||
						f64[i] != stampF64 || i64[i] != stampI64 ||
						u64[i] != uint64(stampI64) || i32[i] != int32(id) {
						t.Errorf("worker %d round %d: buffer contents changed while held — pooled slice shared between holders", id, r)
						return
					}
					if extra[i] != -stampF64 {
						t.Errorf("worker %d round %d: second buffer aliases the first", id, r)
						return
					}
				}

				Put(extra)
				Put(b)
				Put(f32)
				Put(f64)
				Put(i64)
				Put(u64)
				Put(i32)
			}
		}(g)
	}
	wg.Wait()
}
