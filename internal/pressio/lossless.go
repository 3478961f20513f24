package pressio

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"fraz/internal/grid"
	"fraz/internal/pool"
)

// This file is the kernel of flate:lossless, the DEFLATE baseline that
// substantiates the paper's motivating claim that lossless compressors
// cannot meaningfully reduce floating-point simulation data.

// losslessMagic32 and losslessMagic64 tag the element width of a lossless
// stream, mirroring the typed magics of the lossy kernels (float32 streams
// keep the bytes earlier builds wrote).
const (
	losslessMagic32 = 0x4C5A4631 // "LZF1"
	losslessMagic64 = 0x4C5A4632 // "LZF2"
)

// errLossless is the base error for the lossless baseline codec.
var errLossless = errors.New("flate:lossless")

// losslessStream is the lossless kernel's preamble (internal/grid). Its
// magic opens the inflated bytes; the shape is the caller's, not stored.
var losslessStream = grid.Stream{Magic32: losslessMagic32, Magic64: losslessMagic64, Corrupt: errLossless}

// flateReaders and flateWriters reuse DEFLATE state (a 32 KiB window plus
// decode tables) across calls. The blocked open path decodes one payload per
// block, so without these pools every block pays the reader's setup
// allocations again.
var flateReaders = sync.Pool{New: func() any {
	return flate.NewReader(bytes.NewReader(nil))
}}

var flateWriters = sync.Pool{New: func() any {
	fw, err := flate.NewWriter(io.Discard, flate.BestCompression)
	if err != nil {
		panic(err) // the level constant is valid; NewWriter cannot fail on it
	}
	return fw
}}

func losslessCompress[T grid.Float](data []T, _ grid.Dims, _ struct{}) ([]byte, error) {
	raw := pool.Get[byte](4 + len(data)*grid.ElemSize[T]())[:0]
	defer pool.Put(raw)
	raw = binary.LittleEndian.AppendUint32(raw, losslessStream.Magic(grid.ElemSize[T]()))
	raw = grid.AppendLE(raw, data)
	var out bytes.Buffer
	fw := flateWriters.Get().(*flate.Writer)
	defer flateWriters.Put(fw)
	fw.Reset(&out)
	if _, err := fw.Write(raw); err != nil {
		return nil, fmt.Errorf("%w: %v", errLossless, err)
	}
	if err := fw.Close(); err != nil {
		return nil, fmt.Errorf("%w: %v", errLossless, err)
	}
	return out.Bytes(), nil
}

func losslessDecompressInto[T grid.Float](dst []T, comp []byte, shape grid.Dims) error {
	fr := flateReaders.Get().(io.ReadCloser)
	defer flateReaders.Put(fr)
	if err := fr.(flate.Resetter).Reset(bytes.NewReader(comp), nil); err != nil {
		return fmt.Errorf("%w: %v", errLossless, err)
	}
	// The shape fixes the payload size exactly, so the inflated bytes can come
	// from the pool instead of ReadAll's repeated growth: read the expected
	// length plus one sentinel byte that must hit EOF.
	want := 4 + shape.Len()*grid.ElemSize[T]()
	raw := pool.Get[byte](want + 1)
	defer pool.Put(raw)
	n, err := io.ReadFull(fr, raw)
	switch {
	case err == nil || n > want:
		return fmt.Errorf("%w: payload longer than shape %v expects", errLossless, shape)
	case err != io.ErrUnexpectedEOF && err != io.EOF:
		return fmt.Errorf("%w: %v", errLossless, err)
	case n != want:
		return fmt.Errorf("%w: truncated payload", errLossless)
	}
	fr.Close()
	width, err := losslessStream.Width(raw[:want], 4)
	if err != nil {
		return err
	}
	if err := grid.Expect(&losslessStream, dst, width, shape, shape); err != nil {
		return err
	}
	grid.DecodeLE(dst, raw[4:want])
	return nil
}
