package pool

import (
	"bytes"
	"compress/flate"
	"testing"
)

func TestGetLengthAndReuse(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 1000, 1 << 20} {
		s := Get[byte](n)
		if len(s) != n {
			t.Fatalf("Get[byte](%d) returned length %d", n, len(s))
		}
		Put(s)
	}
	// A put slice should come back for a fitting request (sync.Pool gives no
	// hard guarantee, but single-goroutine put/get without an intervening GC
	// reuses in practice; tolerate either outcome, just exercise the path).
	s := Get[float64](100)
	s[0] = 42
	Put(s)
	r := Get[float64](100)
	_ = r[99]
	Put(r)
}

func TestBucketFor(t *testing.T) {
	cases := map[int]int{
		-1:               -1,
		0:                -1,
		1:                minBucket,
		64:               minBucket,
		65:               7,
		128:              7,
		129:              8,
		1 << maxBucket:   maxBucket,
		1<<maxBucket + 1: -1,
	}
	for n, want := range cases {
		if got := bucketFor(n); got != want {
			t.Errorf("bucketFor(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestPutUndersizedDropped(t *testing.T) {
	// A slice below the minimum class must be dropped, not filed where a
	// larger get could receive it.
	Put(make([]byte, 8))
	s := Get[byte](64)
	if len(s) != 64 {
		t.Fatalf("got length %d", len(s))
	}
	Put(s)
}

func TestOutOfRangeGet(t *testing.T) {
	s := Get[byte](1<<maxBucket + 1)
	if len(s) != 1<<maxBucket+1 {
		t.Fatalf("oversized get returned length %d", len(s))
	}
}

// A recycled DEFLATE writer must write the bytes a new one would: the codecs'
// streams, and so every tuned ratio, depend on it.
func TestFlateWriterReuseMatchesFresh(t *testing.T) {
	inputs := [][]byte{
		bytes.Repeat([]byte("fixed-ratio "), 9000),
		bytes.Repeat([]byte{0, 1, 2, 3, 5, 8, 13, 21, 34}, 30000),
		[]byte("short"),
	}
	for round := 0; round < 2; round++ {
		for i, in := range inputs {
			var fresh, pooled bytes.Buffer
			fw, err := flate.NewWriter(&fresh, flate.BestSpeed)
			if err != nil {
				t.Fatal(err)
			}
			pw := GetFlateWriter(&pooled)
			for _, w := range []*flate.Writer{fw, pw} {
				if _, err := w.Write(in); err != nil {
					t.Fatal(err)
				}
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
			}
			PutFlateWriter(pw)
			if !bytes.Equal(fresh.Bytes(), pooled.Bytes()) {
				t.Fatalf("round %d input %d: pooled writer wrote %d bytes that differ from a new writer's %d", round, i, pooled.Len(), fresh.Len())
			}
		}
	}
}
