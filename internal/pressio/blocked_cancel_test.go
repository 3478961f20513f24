package pressio

import (
	"context"
	"errors"
	"sync"
	"testing"

	"fraz/internal/grid"
)

// These tests pin what a seal aborted half way reports: some blocks have
// finished, some have failed or never started, and the caller must be told
// the one reason that matters.

// probe is the state behind a stub codec whose Encode runs a caller hook per
// invocation, so a test can trigger cancellation or failure at an exact
// point in the blocked pipeline.
type probe struct {
	onCall func(call int) error // non-nil error fails that block

	mu    sync.Mutex
	calls int
}

func (p *probe) codec() *Codec {
	return &Codec{
		Name: "test:probe", MinRank: 1, MaxRank: 4,
		Param:  Param{Name: "absolute error bound", Unit: UnitAbsError, Lo: 1e-12, Hi: 1},
		Encode: p.encode,
		Decode: func([]byte, Buffer) error {
			return errors.New("probe codec does not decompress")
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
	return make([]byte, 512), nil
}

func probeField(t *testing.T) Buffer {
	t.Helper()
	buf, err := NewBufferOf(make([]float32, 8*16), grid.MustDims(8, 16))
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestSealBlockedCancelReturnsContextError cancels the context from inside
// the first block's compression: the seal stops feeding blocks and returns
// the context's error, not a container short of blocks.
func TestSealBlockedCancelReturnsContextError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := &probe{onCall: func(call int) error {
		if call == 1 {
			cancel()
		}
		return nil
	}}
	cn, err := SealBlocked(ctx, p.codec(), probeField(t), 1e-3, 4, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("SealBlocked under cancellation: got %v, want context.Canceled", err)
	}
	if cn.Payload != nil || cn.Blocks != nil {
		t.Error("a cancelled seal returned a container")
	}
	if p.calls != 1 {
		t.Errorf("%d blocks compressed after the cancellation, want none", p.calls-1)
	}
}

// TestSealBlockedBlockFailureOutranksCancellation fails one block and
// cancels the context in the same breath, the way a request deadline and a
// codec refusal can coincide: the blocks that follow only echo the
// cancellation, and the block's own failure is what the caller is told.
func TestSealBlockedBlockFailureOutranksCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	failure := errors.New("synthetic block failure")
	p := &probe{onCall: func(call int) error {
		if call == 2 {
			cancel()
			return failure
		}
		return nil
	}}
	_, err := SealBlocked(ctx, p.codec(), probeField(t), 1e-3, 4, 1)
	if !errors.Is(err, failure) {
		t.Fatalf("got %v, want the block's own failure", err)
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("the cancellation echo leaked into %v", err)
	}
}
