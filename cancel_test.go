// Context-cancellation contract of the public API: a caller that abandons a
// request — a server timing out a tune, a pipeline shutting down — must get
// ctx.Err() back promptly instead of paying for the rest of the search, and
// the abort must not corrupt shared state (the pooled-buffer side of this is
// pinned by pointer identity in internal/pressio's blocked_cancel_test.go).
package fraz_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"
	"time"

	"fraz"
)

// TestCompressPreCancelledContext: a context cancelled before the call must
// surface as ctx.Err() without writing a byte of output.
func TestCompressPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	data, shape := testField()
	c, err := fraz.New("sz:abs", fraz.Ratio(10), fraz.Tolerance(0.25), fraz.Regions(4), fraz.Seed(3))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	_, err = c.Compress(ctx, &out, data, shape)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Compress with cancelled context: got %v, want context.Canceled", err)
	}
	if out.Len() != 0 {
		t.Errorf("Compress wrote %d bytes despite cancellation", out.Len())
	}
}

// TestCompressCancelledMidTune cancels while the search is running and
// requires Compress to return the context error promptly — well before a
// full tune of the field would complete. The target is out of reach, so
// that the search cannot end early on a lucky bound and has all twelve
// regions to go through when the cancellation lands.
func TestCompressCancelledMidTune(t *testing.T) {
	data, shape := testField()
	c, err := fraz.New("sz:abs", fraz.Ratio(1e6), fraz.Tolerance(0.01), fraz.Seed(3), fraz.ReuseBounds(false))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = c.Compress(ctx, io.Discard, data, shape)
	elapsed := time.Since(start)
	if errors.Is(err, fraz.ErrInfeasible) {
		// The race is legal: a 2ms head start can be enough to finish the
		// whole tune on a fast machine. Only a call that was cut short must
		// carry the context error.
		t.Skip("tune completed before the cancellation landed")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Compress cancelled mid-tune: got %v, want context.Canceled", err)
	}
	if elapsed > 10*time.Second {
		t.Errorf("cancelled Compress took %v to return", elapsed)
	}
}

// TestTunePreCancelledContext mirrors the Compress contract for the
// search-only entry point.
func TestTunePreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	data, shape := testField()
	c, err := fraz.New("sz:abs", fraz.Ratio(10), fraz.Tolerance(0.25), fraz.Regions(4), fraz.Seed(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Tune(ctx, data, shape); !errors.Is(err, context.Canceled) {
		t.Fatalf("Tune with cancelled context: got %v, want context.Canceled", err)
	}
}

// TestDecompressPreCancelledContext covers both container versions: the
// monolithic (v1) and blocked (v2) decode paths each check the context
// before any reconstruction work.
func TestDecompressPreCancelledContext(t *testing.T) {
	data, shape := testField()
	for _, blocks := range []int{1, 4} {
		var arc bytes.Buffer
		_, err := fraz.Compress(context.Background(), &arc, data, shape,
			fraz.Ratio(10), fraz.Tolerance(0.25), fraz.Regions(4), fraz.Seed(3), fraz.Blocks(blocks))
		if err != nil {
			t.Fatalf("blocks=%d: seal: %v", blocks, err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, _, err := fraz.Decompress(ctx, bytes.NewReader(arc.Bytes())); !errors.Is(err, context.Canceled) {
			t.Errorf("blocks=%d: Decompress with cancelled context: got %v, want context.Canceled", blocks, err)
		}
	}
}

// TestCompressDeadlineExceeded: a deadline that expires mid-call must
// surface as context.DeadlineExceeded, the error a serving layer maps to
// its timeout status.
func TestCompressDeadlineExceeded(t *testing.T) {
	data, shape := testField()
	c, err := fraz.New("sz:abs", fraz.Ratio(10), fraz.Tolerance(0.25), fraz.Regions(4), fraz.Seed(3))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond) // the deadline is already past when Compress starts
	if _, err := c.Compress(ctx, io.Discard, data, shape); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Compress past deadline: got %v, want context.DeadlineExceeded", err)
	}
}
