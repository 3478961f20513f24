// Package codestreamtest forges the hostile streams that the decoders built
// on internal/codestream are tested against: the sz and mgard corruption
// tables, their fuzz seeds, and frazd's /v1/decompress tests all need the
// same two, and each would otherwise patch bytes by hand.
package codestreamtest

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"

	"fraz/internal/codestream"
)

// Layout says where a codec's stream keeps what a forgery has to touch.
type Layout struct {
	// HeaderLen is the length of the stream's header for its rank; the
	// code-stream body follows it.
	HeaderLen int
	// FlagOffset is the offset of the header's dictionary flag.
	FlagOffset int
	// HeadChunks is the number of length-prefixed chunks the codec puts
	// ahead of the codes (sz: its block records; mgard: none).
	HeadChunks int
}

// Forge turns a valid stream into two hostile ones that keep its header:
// forged declares two billion literals (8 or 16 GiB if it is believed) in
// an otherwise intact body,
// and bomb replaces the body with DEFLATE a thousandth the size of the
// bombSize zero bytes it inflates to (a multiple of 1 MiB: 64 MiB makes the
// point in an allocation test, 1 MiB keeps a fuzz seed short enough to
// minimise).
func Forge(stream []byte, l Layout, bombSize int) (forged, bomb []byte, err error) {
	if len(stream) < l.HeaderLen {
		return nil, nil, fmt.Errorf("codestreamtest: %d-byte stream is shorter than its %d-byte header", len(stream), l.HeaderLen)
	}
	header, body := stream[:l.HeaderLen], stream[l.HeaderLen:]
	if header[l.FlagOffset] == 1 {
		if body, err = codestream.Inflate(body, 1<<30); err != nil {
			return nil, nil, err
		}
	}
	rest := body
	for i := 0; i <= l.HeadChunks; i++ { // the head chunks, then the Huffman container
		if _, rest, err = codestream.ReadChunk(rest); err != nil {
			return nil, nil, err
		}
	}
	if len(rest) < 4 {
		return nil, nil, fmt.Errorf("codestreamtest: no literal count after the codes")
	}
	countAt := l.HeaderLen + len(body) - len(rest)

	forged = append(append([]byte(nil), header...), body...)
	forged[l.FlagOffset] = 0
	binary.LittleEndian.PutUint32(forged[countAt:], 0x7fffffff)

	var deflated bytes.Buffer
	fw, err := flate.NewWriter(&deflated, flate.BestCompression)
	if err != nil {
		return nil, nil, err
	}
	zeros := make([]byte, 1<<20)
	for written := 0; written < bombSize; written += len(zeros) {
		if _, err := fw.Write(zeros); err != nil {
			return nil, nil, err
		}
	}
	if err := fw.Close(); err != nil {
		return nil, nil, err
	}
	bomb = append(append([]byte(nil), header...), deflated.Bytes()...)
	bomb[l.FlagOffset] = 1
	return forged, bomb, nil
}
