// Package codestream is the back end the prediction-based codecs share: sz
// and mgard both end with a stream of quantisation codes plus the values
// that would not quantise, and both store it the same way — Huffman-coded
// codes, then the literals verbatim, the whole run through DEFLATE and kept
// only if that made it smaller. The functions here are that stage and its
// inverse, plain calls with no state. They are also where a hostile body is
// met first, so the checks that keep a forged length or a DEFLATE bomb from
// becoming an allocation live here, once.
//
// Body layout, before the dictionary stage (integers little-endian):
//
//	...   the caller's head: zero or more chunks, each a 4-byte length and
//	      that many bytes, opaque to this package (sz: one chunk of
//	      per-block predictor records; mgard: none)
//	4     length of the Huffman container
//	...   Huffman container (internal/huffman)
//	4     number of literals
//	...   literals, raw IEEE-754 at the stream's element width
package codestream

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"fraz/internal/grid"
	"fraz/internal/huffman"
	"fraz/internal/pool"
)

// ErrCorrupt is returned for a body that does not parse. The codecs wrap it
// in their own ErrCorrupt.
var ErrCorrupt = errors.New("codestream: corrupt body")

// appendCount appends the 32-bit count of n things, or fails when n does
// not fit: a wrapped count reads back as a different, valid-looking one.
func appendCount(dst []byte, n int, what string) ([]byte, error) {
	if err := huffman.CheckCount(n, what); err != nil {
		return nil, fmt.Errorf("codestream: %w", err)
	}
	return binary.LittleEndian.AppendUint32(dst, uint32(n)), nil
}

// appendChunk appends a length-prefixed run of bytes.
func appendChunk(dst, chunk []byte) ([]byte, error) {
	dst, err := appendCount(dst, len(chunk), "chunk bytes")
	if err != nil {
		return nil, err
	}
	return append(dst, chunk...), nil
}

// ReadChunk splits a length-prefixed run off the front of body. The chunk
// aliases body.
func ReadChunk(body []byte) (chunk, rest []byte, err error) {
	if len(body) < 4 {
		return nil, nil, fmt.Errorf("%w: truncated chunk length", ErrCorrupt)
	}
	n := binary.LittleEndian.Uint32(body)
	body = body[4:]
	if uint64(n) > uint64(len(body)) {
		return nil, nil, fmt.Errorf("%w: chunk length %d exceeds remaining %d", ErrCorrupt, n, len(body))
	}
	return body[:n], body[n:], nil
}

// Encode builds a body: the head chunks, each length-prefixed, then the
// entropy-coded codes and the literals — and runs the result through DEFLATE
// (the dictionary stage), keeping whichever is smaller. flag is the byte the
// caller records in its header and hands back to Decode: 1 when body is the
// DEFLATE stream, 0 when it is the plain body.
func Encode[T grid.Float](codes []int32, literals []T, head ...[]byte) (body []byte, flag byte, err error) {
	huff, err := huffman.Encode(codes)
	if err != nil {
		return nil, 0, fmt.Errorf("huffman stage: %w", err)
	}
	// Sized up front — the body exactly, the DEFLATE output to the size at
	// which it is discarded for being no smaller — so neither grows by
	// reallocation, once per evaluation of a search.
	size := 8 + len(huff) + len(literals)*grid.ElemSize[T]()
	for _, chunk := range head {
		size += 4 + len(chunk)
	}
	body = make([]byte, 0, size)
	for _, chunk := range head {
		if body, err = appendChunk(body, chunk); err != nil {
			return nil, 0, err
		}
	}
	if body, err = appendChunk(body, huff); err != nil {
		return nil, 0, err
	}
	if body, err = appendCount(body, len(literals), "literals"); err != nil {
		return nil, 0, err
	}
	body = grid.AppendLE(body, literals)
	var comp bytes.Buffer
	comp.Grow(len(body))
	fw := pool.GetFlateWriter(&comp)
	defer pool.PutFlateWriter(fw)
	if _, err := fw.Write(body); err != nil {
		return nil, 0, fmt.Errorf("dictionary stage: %w", err)
	}
	if err := fw.Close(); err != nil {
		return nil, 0, fmt.Errorf("dictionary stage: %w", err)
	}
	if comp.Len() < len(body) {
		return comp.Bytes(), 1, nil
	}
	return body, 0, nil
}

// MaxBody bounds the size, before the dictionary stage, of any body Encode
// can have produced for a field of n values: a head of at most headPerValue
// bytes per value, the largest Huffman container n codes over the given
// number of distinct symbols can fill, and n literals. It is what Inflate
// is told to stop at.
func MaxBody(n, elemSize, symbols, headPerValue int) int64 {
	v := min(int64(n), huffman.MaxSymbols) // no body holds more codes, whatever its header's shape says
	return v*int64(headPerValue) + 4 + huffman.MaxEncodedLen(v, int64(symbols)) + 4 + v*int64(elemSize)
}

// Inflate undoes the dictionary stage. It reads at most limit bytes — the
// caller's MaxBody — so a DEFLATE bomb costs what an honest stream of the
// same header could, not the thousandfold its ratio promises.
func Inflate(body []byte, limit int64) ([]byte, error) {
	fr := flate.NewReader(bytes.NewReader(body))
	defer fr.Close()
	raw, err := io.ReadAll(io.LimitReader(fr, limit+1))
	if err != nil {
		return nil, fmt.Errorf("%w: inflate: %v", ErrCorrupt, err)
	}
	if int64(len(raw)) > limit {
		return nil, fmt.Errorf("%w: body inflates past the %d bytes its header allows", ErrCorrupt, limit)
	}
	return raw, nil
}

// Decode is the inverse of Encode: given the header's flag it inflates the
// body (to at most limit bytes, the caller's MaxBody plus its head), takes
// off the heads chunks the caller put first, and reads the codes and the
// literals. The literals' count is checked against the bytes that are there
// before anything is allocated for it. The head chunks alias the (inflated)
// body; codes and literals are the caller's own.
func Decode[T grid.Float](body []byte, flag byte, limit int64, heads int) (head [][]byte, codes []int32, literals []T, err error) {
	if flag == 1 {
		if body, err = Inflate(body, limit); err != nil {
			return nil, nil, nil, err
		}
	}
	for i := 0; i <= heads; i++ { // the last chunk read is the Huffman container
		var chunk []byte
		if chunk, body, err = ReadChunk(body); err != nil {
			return nil, nil, nil, err
		}
		head = append(head, chunk)
	}
	if len(body) < 4 {
		return nil, nil, nil, fmt.Errorf("%w: truncated literal count", ErrCorrupt)
	}
	numLit := binary.LittleEndian.Uint32(body)
	body = body[4:]
	if uint64(numLit) > uint64(len(body)/grid.ElemSize[T]()) {
		return nil, nil, nil, fmt.Errorf("%w: %d literals declared, %d bytes remain", ErrCorrupt, numLit, len(body))
	}
	if codes, err = huffman.Decode(head[heads]); err != nil {
		return nil, nil, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	literals = make([]T, numLit)
	grid.DecodeLE(literals, body)
	return head[:heads], codes, literals, nil
}
