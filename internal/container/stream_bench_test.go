package container

import (
	"bytes"
	"io"
	"math/rand"
	"sync"
	"testing"

	"fraz/internal/grid"
)

// The streaming benchmarks quantify what WriteTo/ReadFrom save over the
// in-memory Encode/Decode pair on a payload the size of a 64 MB field's
// compressed blocks: Encode stages the whole archive in a second buffer
// before it can reach a file, and Decode needs the whole archive resident
// before parsing starts, while the streaming pair touch the payload exactly
// once each.

const benchPayloadBytes = 64 << 20

var (
	benchContainerOnce sync.Once
	benchContainer     Container
	benchEncoded       []byte
)

// benchSetup builds one blocked container with 8 blocks of pseudo-random
// payload (the container layer never inspects payload bytes, so random data
// stands in for any codec's output) and its encoded stream.
func benchSetup(b *testing.B) (Container, []byte) {
	b.Helper()
	benchContainerOnce.Do(func() {
		r := rand.New(rand.NewSource(1))
		payload := make([]byte, benchPayloadBytes)
		r.Read(payload)
		const nBlocks = 8
		payloads := make([][]byte, nBlocks)
		for i := range payloads {
			payloads[i] = payload[i*len(payload)/nBlocks : (i+1)*len(payload)/nBlocks]
		}
		c, err := New("sz:abs", 1e-3, 10, Float32, grid.MustDims(64, 512, 512), payloads)
		if err != nil {
			panic(err)
		}
		enc, err := c.Encode()
		if err != nil {
			panic(err)
		}
		benchContainer, benchEncoded = c, enc
	})
	return benchContainer, benchEncoded
}

func BenchmarkContainerEncode(b *testing.B) {
	c, _ := benchSetup(b)
	b.SetBytes(int64(c.EncodedSize()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Encode(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkContainerWriteTo(b *testing.B) {
	c, _ := benchSetup(b)
	b.SetBytes(int64(c.EncodedSize()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.WriteTo(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkContainerDecode(b *testing.B) {
	_, enc := benchSetup(b)
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkContainerReadFrom(b *testing.B) {
	_, enc := benchSetup(b)
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var c Container
		if _, err := c.ReadFrom(bytes.NewReader(enc)); err != nil {
			b.Fatal(err)
		}
	}
}
