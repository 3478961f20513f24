package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"fraz/internal/container"
	"fraz/internal/grid"
	"fraz/internal/pressio"
)

func sealTestBuffer(t *testing.T) pressio.Buffer {
	t.Helper()
	shape := grid.MustDims(16, 12, 10)
	data := make([]float32, shape.Len())
	i := 0
	for z := 0; z < shape[0]; z++ {
		for y := 0; y < shape[1]; y++ {
			for x := 0; x < shape[2]; x++ {
				data[i] = float32(20*math.Sin(float64(z)/4)*math.Cos(float64(y)/5) + float64(x)/10)
				i++
			}
		}
	}
	buf, err := pressio.NewBufferOf(data, shape)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

func TestSealBlockedRoundTrip(t *testing.T) {
	sz, _ := pressio.Lookup("sz:abs")
	var calls int64
	tu, err := NewTuner(counting(sz, &calls), Config{Objective: fixedRatio(6, 0.2), Regions: 4, Seed: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	buf := sealTestBuffer(t)
	cn, sr, err := tu.SealBlocked(context.Background(), buf, SealOptions{Blocks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if cn.Header.Version != container.VersionBlocked || sr.Blocks != 4 {
		t.Fatalf("sealed v%d with %d blocks, want v2 with 4", cn.Header.Version, sr.Blocks)
	}
	// The winning evaluation's stream is the sample block's payload: the
	// seal compresses the other three blocks only.
	if got := atomic.LoadInt64(&calls); got != int64(sr.Tuning.Iterations+3) {
		t.Errorf("a 4-block seal after %d evaluations called the compressor %d times, want %d",
			sr.Tuning.Iterations, got, sr.Tuning.Iterations+3)
	}
	// Repeated on the same cache, every evaluation is a hit and carries no
	// stream: the seal compresses all four blocks.
	atomic.StoreInt64(&calls, 0)
	again, _, err := tu.SealBlocked(context.Background(), buf, SealOptions{Blocks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt64(&calls); got != 4 || !bytes.Equal(again.Payload, cn.Payload) {
		t.Errorf("a repeated seal from the cache called the compressor %d times (want 4); same payload: %v",
			got, bytes.Equal(again.Payload, cn.Payload))
	}
	if sr.SampleBlock != 2 {
		t.Errorf("sample block = %d, want the middle block 2", sr.SampleBlock)
	}
	if sr.AchievedRatio <= 0 || cn.Header.Ratio != sr.AchievedRatio {
		t.Errorf("achieved ratio %v, header %v", sr.AchievedRatio, cn.Header.Ratio)
	}
	if cn.Header.Bound != sr.Tuning.ErrorBound {
		t.Errorf("container bound %v differs from tuned bound %v", cn.Header.Bound, sr.Tuning.ErrorBound)
	}

	// Round trip through the wire format; the bound tuned on the sample
	// block still caps every value's error across all blocks.
	enc, err := cn.Encode()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := container.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	out, err := pressio.OpenBlocked(context.Background(), dec, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range buf.Float32() {
		if diff := math.Abs(float64(out.Float32()[i]) - float64(buf.Float32()[i])); diff > cn.Header.Bound {
			t.Fatalf("value %d error %v exceeds sealed bound %v", i, diff, cn.Header.Bound)
		}
	}
}

func TestSealBlockedMonolithicFallback(t *testing.T) {
	c, err := pressio.New("sz:abs")
	if err != nil {
		t.Fatal(err)
	}
	tu, err := NewTuner(c, Config{Objective: fixedRatio(6, 0.2), Regions: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	buf := sealTestBuffer(t)
	cn, sr, err := tu.SealBlocked(context.Background(), buf, SealOptions{Blocks: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cn.Header.Version != container.Version || len(cn.Blocks) != 1 || sr.Blocks != 1 {
		t.Errorf("Blocks=1 sealed v%d with %d blocks, want monolithic v1", cn.Header.Version, sr.Blocks)
	}
	// The monolithic fallback tunes on the whole buffer.
	if sr.SampleBlock != 0 {
		t.Errorf("monolithic sample block = %d, want 0", sr.SampleBlock)
	}
}

func TestSealBlockedDefaultsBlockCount(t *testing.T) {
	c, err := pressio.New("sz:abs")
	if err != nil {
		t.Fatal(err)
	}
	tu, err := NewTuner(c, Config{Objective: fixedRatio(6, 0.2), Regions: 4, Seed: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	buf := sealTestBuffer(t)
	cn, sr, err := tu.SealBlocked(context.Background(), buf, SealOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// DefaultCount(16 rows, 2 workers) = 4 blocks.
	if sr.Blocks != 4 || len(cn.Blocks) != 4 {
		t.Errorf("defaulted to %d blocks, want 4 (2 per worker)", sr.Blocks)
	}
}

// TestSealBlockedDefaultWorkersStaysBlocked pins the all-defaults path: with
// Config.Workers unset (the GOMAXPROCS sentinel) and empty SealOptions, the
// seal must still decompose the field rather than silently degenerating to
// a monolithic container.
func TestSealBlockedDefaultWorkersStaysBlocked(t *testing.T) {
	c, err := pressio.New("sz:abs")
	if err != nil {
		t.Fatal(err)
	}
	tu, err := NewTuner(c, Config{Objective: fixedRatio(6, 0.2), Regions: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	buf := sealTestBuffer(t)
	cn, sr, err := tu.SealBlocked(context.Background(), buf, SealOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Even on a single-core host GOMAXPROCS >= 1, so DefaultCount yields at
	// least 2 blocks and the container must be blocked (v2).
	if sr.Blocks < 2 || len(cn.Blocks) != sr.Blocks {
		t.Errorf("all-defaults seal produced %d blocks (v%d), want a blocked container", sr.Blocks, cn.Header.Version)
	}
}

// TestSealCarriesTheFreshStream holds the carried stream to what a seal that
// compresses every block writes: for every codec whose parameter is an error
// magnitude, every objective tuned model first, both widths and both block
// counts, Tuner.SealBlocked's payloads, ratio and bound equal those of
// pressio.SealBlocked at the tuned bound, byte for byte — a stream carried
// into the wrong block, or from another bound, fails here. On a private cache
// and one worker every evaluation runs the compressor, so the seal compresses
// all blocks but the sample: a monolithic seal (every PSNR and max-error
// archive) none.
func TestSealCarriesTheFreshStream(t *testing.T) {
	f32 := sealTestBuffer(t)
	wide := make([]float64, f32.Len())
	for i, v := range f32.Float32() {
		wide[i] = float64(v)
	}
	f64, err := pressio.NewBufferOf(wide, f32.Shape)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, c := range pressio.Codecs() {
		if !c.Param.Unit.IsError() {
			continue
		}
		for _, obj := range []Objective{fixedRatio(6, 0.2), FixedPSNR(60), withTolerance(FixedMaxError(0.2), 0.1)} {
			for _, buf := range []pressio.Buffer{f32, f64} {
				for _, blocks := range []int{1, 4} {
					name := fmt.Sprintf("%s/%s/%s/%d", c.Name, obj.Name, buf.DType(), blocks)
					var calls int64
					tu, err := NewTuner(counting(c, &calls), Config{Objective: obj, Seed: 1, Workers: 1})
					if err != nil {
						t.Fatal(err)
					}
					cn, sr, err := tu.SealBlocked(ctx, buf, SealOptions{Blocks: blocks})
					if err != nil {
						t.Errorf("%s: %v", name, err)
						continue
					}
					if got, want := atomic.LoadInt64(&calls), int64(sr.Tuning.Iterations+sr.Blocks-1); got != want {
						t.Errorf("%s: %d evaluations and a %d-block seal called the compressor %d times, want %d",
							name, sr.Tuning.Iterations, sr.Blocks, got, want)
					}
					fresh, err := pressio.SealBlocked(ctx, c, buf, sr.Tuning.ErrorBound, sr.Blocks, 1)
					if err != nil {
						t.Fatal(err)
					}
					if cn.Header.Bound != fresh.Header.Bound || cn.Header.Ratio != fresh.Header.Ratio || len(cn.Blocks) != len(fresh.Blocks) {
						t.Errorf("%s: sealed bound %v ratio %v in %d blocks, a fresh seal %v, %v, %d", name,
							cn.Header.Bound, cn.Header.Ratio, len(cn.Blocks), fresh.Header.Bound, fresh.Header.Ratio, len(fresh.Blocks))
						continue
					}
					for i := 0; i < len(cn.Blocks); i++ {
						got, _ := cn.BlockPayload(i)
						want, _ := fresh.BlockPayload(i)
						if !bytes.Equal(got, want) {
							t.Errorf("%s: block %d (sample %d) differs from a fresh seal's", name, i, sr.SampleBlock)
						}
					}
				}
			}
		}
	}
}
