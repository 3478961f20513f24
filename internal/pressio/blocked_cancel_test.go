package pressio

import (
	"context"
	"errors"
	"sync"
	"testing"

	"fraz/internal/container"
	"fraz/internal/grid"
	"fraz/internal/pool"
)

// These tests pin the pool discipline of SealBlocked's failure paths: a seal
// aborted by cancellation (or by one block's failure) has already produced
// payloads for the blocks that finished, and those buffers must go back to
// the byte pool — the success path recycles them after container.NewBlocked
// copies, so an error path that drops them leaks one buffer per completed
// block on every aborted request. A long-running server cancelling requests
// on timeout would bleed pooled memory continuously.

// probe is the state behind a stub codec whose Encode hands out pool-backed
// payloads and runs a caller hook per invocation, so a test can trigger
// cancellation or failure at an exact point in the blocked pipeline. It
// records every buffer the pipeline now owns and, through recyclePayload,
// every buffer the pipeline gave back.
type probe struct {
	onCall func(call int) error // non-nil error fails that block

	mu       sync.Mutex
	calls    int
	handed   map[*byte]bool
	recycled map[*byte]int
}

// install builds the probe's codec and routes SealBlocked's recycling
// through the probe for the length of the test.
func (p *probe) install(t *testing.T) *Codec {
	p.handed, p.recycled = map[*byte]bool{}, map[*byte]int{}
	prev := recyclePayload
	recyclePayload = func(b []byte) {
		p.mu.Lock()
		p.recycled[&b[:1][0]]++
		p.mu.Unlock()
		prev(b)
	}
	t.Cleanup(func() { recyclePayload = prev })
	return &Codec{
		Name: "test:probe", MinRank: 1, MaxRank: 4,
		Param:  Param{Name: "absolute error bound", Unit: UnitAbsError, Lo: 1e-12, Hi: 1},
		Encode: p.encode,
		Decode: func([]byte, grid.Dims, container.DType) (Buffer, error) {
			return Buffer{}, errors.New("probe codec does not decompress")
		},
	}
}

func (p *probe) encode(Buffer, float64) ([]byte, error) {
	p.mu.Lock()
	p.calls++
	call := p.calls
	p.mu.Unlock()
	if p.onCall != nil {
		if err := p.onCall(call); err != nil {
			return nil, err
		}
	}
	out := pool.Get[byte](512)
	for i := range out {
		out[i] = byte(call)
	}
	p.mu.Lock()
	p.handed[&out[0]] = true
	p.mu.Unlock()
	return out, nil
}

// checkAllRecycled asserts that exactly the payloads the probe handed out
// went back to the pool, once each.
func (p *probe) checkAllRecycled(t *testing.T, want int) {
	t.Helper()
	if len(p.handed) != want {
		t.Fatalf("%d blocks completed, want %d", len(p.handed), want)
	}
	for b := range p.handed {
		if p.recycled[b] != 1 {
			t.Errorf("a completed block payload was recycled %d times, want once", p.recycled[b])
		}
	}
	if len(p.recycled) != want {
		t.Errorf("%d distinct buffers recycled, want the %d handed out", len(p.recycled), want)
	}
}

func probeField(t *testing.T) Buffer {
	t.Helper()
	buf, err := NewBuffer(make([]float32, 8*16), grid.MustDims(8, 16))
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestSealBlockedCancelRecyclesCompletedPayloads cancels the context from
// inside the first block's compression — the moment a payload exists that
// the aborted seal will never use — and asserts that payload returns to the
// pool.
func TestSealBlockedCancelRecyclesCompletedPayloads(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := &probe{onCall: func(call int) error {
		if call == 1 {
			cancel() // feed loop stops; block 0's payload is already committed
		}
		return nil
	}}
	_, err := SealBlocked(ctx, p.install(t), probeField(t), 1e-3, 4, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("SealBlocked under cancellation: got %v, want context.Canceled", err)
	}
	p.checkAllRecycled(t, 1)
}

// TestSealBlockedBlockFailureRecyclesCompletedPayloads drives the same
// guarantee through a mid-seal block failure: blocks that compressed before
// (or despite) another block's error must be recycled, not dropped with the
// error.
func TestSealBlockedBlockFailureRecyclesCompletedPayloads(t *testing.T) {
	p := &probe{onCall: func(call int) error {
		if call == 2 {
			return errors.New("synthetic block failure")
		}
		return nil
	}}
	_, err := SealBlocked(context.Background(), p.install(t), probeField(t), 1e-3, 4, 1)
	if err == nil {
		t.Fatal("SealBlocked succeeded despite a failing block")
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("want the block's own failure, got %v", err)
	}
	// Blocks 1, 3 and 4 completed (call 2 failed, and one block's failure
	// does not stop the others).
	p.checkAllRecycled(t, 3)
}
