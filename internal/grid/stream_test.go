package grid

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

var errTestCorrupt = errors.New("test: corrupt stream")

// testStream is a kernel preamble for the table below: magic "TST1"/"TST2",
// ranks 1 to 3, and a fixed header of the magic and a rank byte.
var testStream = Stream{Magic32: 0x31545354, Magic64: 0x32545354, MinRank: 1, MaxRank: 3, Corrupt: errTestCorrupt}

const testFixed = 5

// testPreamble writes a stream the way a kernel does: the magic, the rank
// byte, the extents, then body bytes.
func testPreamble(elemSize int, shape Dims, body int) []byte {
	out := binary.LittleEndian.AppendUint32(nil, testStream.Magic(elemSize))
	out = append(out, byte(len(shape)))
	out = AppendShape(out, shape)
	return append(out, make([]byte, body)...)
}

// testOpen reads a stream's preamble the way a kernel's DecompressInto does
// and returns the body.
func testOpen[T Float](dst []T, buf []byte, want Dims) ([]byte, error) {
	width, err := testStream.Width(buf, testFixed)
	if err != nil {
		return nil, err
	}
	shape, body, err := testStream.Shape(buf, testFixed, int(buf[4]))
	if err != nil {
		return nil, err
	}
	return body, Expect(&testStream, dst, width, shape, want)
}

// TestStreamPreamble is the corruption table of the preamble every kernel
// stream opens with: each row is refused with the kernel's corrupt-stream
// error before anything is sized from it. The kernels' own tables keep one
// smoke row each.
func TestStreamPreamble(t *testing.T) {
	shape := MustDims(3, 5)
	valid := testPreamble(4, shape, 16)
	withExtent := func(i int, e uint32) []byte {
		out := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint32(out[testFixed+4*i:], e)
		return out
	}
	withRank := func(rank byte) []byte {
		out := append([]byte(nil), valid...)
		out[4] = rank
		return out
	}
	// Three extents of 2^31−1 are each valid, but address more values than
	// Validate admits.
	overflow := testPreamble(4, Dims{1, 1, 1}, 0)
	for i := 0; i < 3; i++ {
		binary.LittleEndian.PutUint32(overflow[testFixed+4*i:], math.MaxInt32)
	}
	big := MustDims(1<<20, 1<<10)
	rows := []struct {
		name   string
		stream []byte
		want   Dims
		wide   bool
	}{
		{"short buffer", valid[:testFixed-1], shape, false},
		{"bad magic", append([]byte{'N', 'O', 'P', 'E'}, valid[4:]...), shape, false},
		{"other width", valid, shape, true},
		{"rank below the window", withRank(0), shape, false},
		{"rank above the window", withRank(4), shape, false},
		{"truncated shape", valid[:testFixed+4], shape, false},
		{"zero extent", withExtent(1, 0), shape, false},
		{"extent above MaxInt32", withExtent(0, math.MaxInt32+1), shape, false},
		{"shape Validate refuses", overflow, shape, false},
		{"shape mismatch", valid, MustDims(5, 3), false},
		{"more values than bytes can carry", testPreamble(4, big, 0), big, false},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var err error
			if row.wide {
				_, err = testOpen(make([]float64, row.want.Len()), row.stream, row.want)
			} else {
				_, err = testOpen(make([]float32, row.want.Len()), row.stream, row.want)
			}
			if !errors.Is(err, errTestCorrupt) {
				t.Fatalf("got %v, want an error wrapping the kernel's corrupt-stream error", err)
			}
		})
	}

	// A destination of another length is the caller's mistake, not a
	// corrupt stream.
	if _, err := testOpen(make([]float32, 14), valid, shape); err == nil || errors.Is(err, errTestCorrupt) {
		t.Errorf("short destination: got %v, want a caller error", err)
	}
}

// TestStreamPreambleAccepts pins the other side: both widths open, the body
// is what follows the extents, and a stream exactly at MaxElementsPerByte
// values per byte is still accepted.
func TestStreamPreambleAccepts(t *testing.T) {
	shape := MustDims(3, 5)
	for _, elem := range []int{4, 8} {
		buf := testPreamble(elem, shape, 7)
		var body []byte
		var err error
		if elem == 4 {
			body, err = testOpen(make([]float32, 15), buf, shape)
		} else {
			body, err = testOpen(make([]float64, 15), buf, shape)
		}
		if err != nil || len(body) != 7 {
			t.Fatalf("%d-byte elements: body of %d bytes, %v", elem, len(body), err)
		}
	}
	n := testFixed + 4 // one extent, no body
	dense := testPreamble(4, MustDims(MaxElementsPerByte*n), 0)
	if _, err := testOpen(make([]float32, MaxElementsPerByte*n), dense, MustDims(MaxElementsPerByte*n)); err != nil {
		t.Errorf("a stream at the cap: %v", err)
	}
}
