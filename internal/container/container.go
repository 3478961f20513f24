// Package container defines the self-describing `.fraz` on-disk format.
//
// The codecs registered in internal/pressio emit bare byte blobs that
// cannot be decoded without out-of-band knowledge of the codec, the tuned
// error bound, and the data shape. A Container wraps such a blob in a small
// versioned header carrying exactly that metadata — the same role
// libpressio's pressio_data metadata (and SZx's typed stream header) plays
// for the systems the paper builds on — so an archived artifact can be
// decompressed years later by name alone.
//
// Common layout (all integers little-endian):
//
//	offset  size  field
//	0       4     magic "FRZ\x01"
//	4       2     format version (1 = one block, 2 = block index)
//	6       1     dtype (0 = float32, 1 = float64)
//	7       1     flags (bit 7: objective extension present) | rank (1..4)
//	8       1     codec name length L (1..255)
//	9       L     codec name (e.g. "sz:abs")
//	...     8     tuned bound (IEEE-754 float64)
//	...     8     achieved ratio (IEEE-754 float64)
//	...     8×R   shape extents, slowest dimension first (uint64 each)
//
// When bit 7 of the rank byte is set, an objective extension follows the
// shape extents — a v2-compatible extension recording *what the archive
// promised*: the tuning objective the bound was searched for, its target,
// the absolute half-width of the acceptance band, and the value actually
// achieved. It is orthogonal to the payload layout (both v1 and v2 streams
// may carry it); streams without it are byte-for-byte what earlier builds
// wrote, and this build still reads those. Earlier builds reject extended
// streams (they see an out-of-range rank) rather than silently dropping the
// promise:
//
//	...     1     objective name length Q (1..255)
//	...     Q     objective name (e.g. "psnr", "ssim", "max-error")
//	...     8     objective target (IEEE-754 float64)
//	...     8     acceptance band half-width (IEEE-754 float64, absolute)
//	...     8     achieved value (IEEE-754 float64)
//
// Every container holds its payload as blocks that partition the field
// along its slowest axis (internal/blocks.Plan over the header shape and the
// block count reproduces every block's sub-shape), so each payload can be
// decompressed — and its CRC verified — independently and in parallel. In
// memory the block index is always present; the wire version follows the
// block count. One block is written as version 1, one payload:
//
//	...     8     payload length N (uint64)
//	...     4     CRC-32 (IEEE) of the payload
//	...     N     payload (the codec's compressed stream)
//
// Two or more blocks are written as version 2, a block index followed by the
// block payloads:
//
//	...     4     block count B (uint32, 1..shape[0])
//	per block (B times):
//	...     8     payload offset (uint64, from the start of the payload area)
//	...     8     payload length (uint64)
//	...     4     CRC-32 (IEEE) of the block payload
//	...     ΣN    block payloads, concatenated in index order
//
// A version-1 stream decodes to a one-entry index, and a one-block version-2
// stream (which New never writes, but the format allows) decodes and
// re-encodes as version 2, so every stream re-encodes to its own bytes.
//
// Encoding and decoding use sticky-error readers/writers in the style of
// internal/bitstream: every field accessor checks and records the first
// failure, and the caller inspects a single error at the end.
package container

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"strings"

	"fraz/internal/grid"
	"fraz/internal/pool"
)

// Version is the single-payload format version, which New writes for a
// one-block container.
const Version = 1

// VersionBlocked is the blocked format version: a block index followed by
// independently-decodable block payloads, which New writes for two or more
// blocks.
const VersionBlocked = 2

// maxVersion is the newest format version this build decodes.
const maxVersion = VersionBlocked

// MaxBlocks caps the block count a stream may declare, bounding the index
// allocation a hostile header can demand before any payload is read.
const MaxBlocks = 1 << 20

// magic identifies a .fraz stream: "FRZ" plus a non-printable byte so text
// files are rejected immediately.
var magic = [4]byte{'F', 'R', 'Z', 0x01}

// DType enumerates the element types a container can carry.
//
//	dtype  element
//	0      float32 (IEEE-754 single precision)
//	1      float64 (IEEE-754 double precision)
type DType uint8

const (
	// Float32 marks single-precision payloads. It is the zero value, so
	// containers built before the dtype was threaded through decode as
	// float32 — exactly what they hold.
	Float32 DType = 0
	// Float64 marks double-precision payloads.
	Float64 DType = 1
)

// Size returns the element size in bytes, or 0 for an unknown dtype.
func (d DType) Size() int {
	switch d {
	case Float32:
		return 4
	case Float64:
		return 8
	}
	return 0
}

func (d DType) String() string {
	switch d {
	case Float32:
		return "float32"
	case Float64:
		return "float64"
	}
	return fmt.Sprintf("dtype(%d)", uint8(d))
}

// ParseDType is the inverse of String for element types that arrive as text
// (a command-line flag, a request header); "f32"/"f64" are accepted as
// shorthands, and the empty string is the float32 default.
func ParseDType(s string) (DType, error) {
	switch strings.ToLower(s) {
	case "", "float32", "f32":
		return Float32, nil
	case "float64", "f64":
		return Float64, nil
	}
	return 0, fmt.Errorf("unknown dtype %q (want float32 or float64)", s)
}

// Sentinel errors returned (wrapped) by Decode.
var (
	// ErrBadMagic means the stream does not start with the .fraz magic.
	ErrBadMagic = errors.New("container: not a .fraz stream (bad magic)")
	// ErrVersion means the stream was written by a newer format version.
	ErrVersion = errors.New("container: unsupported format version")
	// ErrTruncated means the stream ended before the header or payload did.
	ErrTruncated = errors.New("container: truncated stream")
	// ErrCorrupt means the payload failed its CRC-32 check.
	ErrCorrupt = errors.New("container: payload CRC mismatch")
	// ErrHeader means a header field holds an invalid value.
	ErrHeader = errors.New("container: invalid header field")
)

// objectiveFlag is the bit set on the rank byte when the header carries an
// objective extension. Builds without the extension reject the resulting
// out-of-range rank, so an archive's promise is never silently dropped.
const objectiveFlag = 0x80

// Objective records what an archive promised: the tuning objective its
// bound was searched for, the requested target, the absolute half-width of
// the acceptance band, and the value the tuned bound actually achieved.
// A zero Name means no objective was recorded (fixed-ratio archives keep
// the promise in the Bound/Ratio fields and stay byte-compatible with
// earlier builds).
type Objective struct {
	// Name is the objective's registered name, e.g. "psnr".
	Name string
	// Target is the requested objective value.
	Target float64
	// Tolerance is the absolute half-width of the acceptance band around
	// Target (already resolved from fractional semantics, so readers need
	// not know how the band was specified).
	Tolerance float64
	// Achieved is the objective value measured at the sealed bound.
	Achieved float64
}

// Header carries the metadata needed to decompress a payload without any
// out-of-band knowledge.
type Header struct {
	// Version is the format version the stream was written with.
	Version uint16
	// Codec is the registered compressor name, e.g. "sz:abs".
	Codec string
	// Bound is the tuned error-bound parameter the payload was compressed
	// with (bits per value for rate-mode codecs).
	Bound float64
	// Ratio is the compression ratio achieved at that bound.
	Ratio float64
	// DType is the element type of the uncompressed data.
	DType DType
	// Shape is the logical shape of the uncompressed data, slowest
	// dimension first.
	Shape grid.Dims
	// Objective optionally records the tuning objective the archive was
	// sealed for (zero Name = none recorded).
	Objective Objective
}

// BlockEntry locates one block's payload inside a container.
type BlockEntry struct {
	// Offset is the byte offset of the block's payload from the start of the
	// payload area. Entries are contiguous: each offset equals the previous
	// entry's offset plus its length.
	Offset uint64
	// Length is the payload length in bytes.
	Length uint64
	// CRC is the CRC-32 (IEEE) of the block payload.
	CRC uint32
}

// Container couples a header with the codec's compressed payload: the block
// payloads concatenated in index order, and Blocks, the index into them,
// which always has at least one entry. Header.Version names the layout the
// container is written in.
type Container struct {
	Header  Header
	Payload []byte
	Blocks  []BlockEntry
}

// New builds a Container from per-block payloads, which must partition the
// field along its slowest axis in index order (one payload per block of
// internal/blocks.Plan(shape, len(payloads))), and indexes them with
// per-block CRCs so each one can be verified and decompressed independently.
// The version follows the block count: one block is the version-1 layout,
// its payload kept by reference; two or more are version 2, their payloads
// concatenated.
func New(codec string, bound, ratio float64, dtype DType, shape grid.Dims, payloads [][]byte) (Container, error) {
	c := Container{
		Header: Header{
			Version: Version,
			Codec:   codec,
			Bound:   bound,
			Ratio:   ratio,
			DType:   dtype,
			Shape:   shape.Clone(),
		},
	}
	if err := c.Header.validate(); err != nil {
		return Container{}, err
	}
	if err := c.Header.validateBlockCount(len(payloads)); err != nil {
		return Container{}, err
	}
	c.Blocks = make([]BlockEntry, len(payloads))
	total := uint64(0)
	for i, p := range payloads {
		c.Blocks[i] = BlockEntry{Offset: total, Length: uint64(len(p)), CRC: crc32.ChecksumIEEE(p)}
		total += uint64(len(p))
	}
	c.Payload = payloads[0]
	if len(payloads) > 1 {
		c.Header.Version = VersionBlocked
		c.Payload = make([]byte, 0, total)
		for _, p := range payloads {
			c.Payload = append(c.Payload, p...)
		}
	}
	return c, nil
}

// BlockPayload returns block i's payload as a subslice of Payload.
func (c Container) BlockPayload(i int) ([]byte, error) {
	if i < 0 || i >= len(c.Blocks) {
		return nil, fmt.Errorf("%w: block %d of %d", ErrHeader, i, len(c.Blocks))
	}
	b := c.Blocks[i]
	end := b.Offset + b.Length
	if end > uint64(len(c.Payload)) || end < b.Offset {
		return nil, fmt.Errorf("%w: block %d spans [%d,%d) of %d payload bytes", ErrHeader, i, b.Offset, end, len(c.Payload))
	}
	return c.Payload[b.Offset:end], nil
}

// validateBlockCount checks that n blocks can come from a plan of the
// header's shape.
func (h Header) validateBlockCount(n int) error {
	if n < 1 || n > h.Shape[0] || n > MaxBlocks {
		return fmt.Errorf("%w: %d blocks for shape %s (want 1..%d)", ErrHeader, n, h.Shape, min(h.Shape[0], MaxBlocks))
	}
	return nil
}

// validateBlocks checks the index against the payload and the version it is
// written as: the version-1 layout holds exactly one block, the count fits
// the shape, and entries tile the payload contiguously in order. The CRCs
// are checked on decode.
func (c Container) validateBlocks() error {
	switch c.Header.Version {
	case Version:
		if len(c.Blocks) != 1 {
			return fmt.Errorf("%w: the version-1 layout holds one block, the index has %d", ErrHeader, len(c.Blocks))
		}
	case VersionBlocked:
	default:
		return fmt.Errorf("%w: %d (this build writes 1..%d)", ErrVersion, c.Header.Version, maxVersion)
	}
	if err := c.Header.validateBlockCount(len(c.Blocks)); err != nil {
		return err
	}
	end, err := indexEnd(c.Blocks)
	if err != nil {
		return err
	}
	if end != uint64(len(c.Payload)) {
		return fmt.Errorf("%w: block index covers %d bytes, payload holds %d", ErrHeader, end, len(c.Payload))
	}
	return nil
}

// indexEnd checks that index entries tile a payload area contiguously in
// order, and returns the length they cover.
func indexEnd(blocks []BlockEntry) (uint64, error) {
	next := uint64(0)
	for i, b := range blocks {
		if b.Offset != next {
			return 0, fmt.Errorf("%w: block %d at offset %d, want %d (entries must be contiguous)", ErrHeader, i, b.Offset, next)
		}
		next += b.Length
		if next < b.Offset {
			return 0, fmt.Errorf("%w: block %d length %d overflows", ErrHeader, i, b.Length)
		}
	}
	return next, nil
}

func (h Header) validate() error {
	if h.Codec == "" || len(h.Codec) > 255 {
		return fmt.Errorf("%w: codec name length %d (want 1..255)", ErrHeader, len(h.Codec))
	}
	if math.IsNaN(h.Bound) || math.IsInf(h.Bound, 0) || h.Bound < 0 {
		return fmt.Errorf("%w: bound %v", ErrHeader, h.Bound)
	}
	if math.IsNaN(h.Ratio) || math.IsInf(h.Ratio, 0) || h.Ratio < 0 {
		return fmt.Errorf("%w: ratio %v", ErrHeader, h.Ratio)
	}
	if h.DType.Size() == 0 {
		return fmt.Errorf("%w: unknown dtype %d", ErrHeader, uint8(h.DType))
	}
	if err := h.Shape.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrHeader, err)
	}
	if h.Objective.Name != "" {
		o := h.Objective
		if len(o.Name) > 255 {
			return fmt.Errorf("%w: objective name length %d (want 1..255)", ErrHeader, len(o.Name))
		}
		if math.IsNaN(o.Target) || math.IsInf(o.Target, 0) {
			return fmt.Errorf("%w: objective target %v", ErrHeader, o.Target)
		}
		if math.IsNaN(o.Tolerance) || math.IsInf(o.Tolerance, 0) || o.Tolerance < 0 {
			return fmt.Errorf("%w: objective tolerance %v", ErrHeader, o.Tolerance)
		}
		// Achieved may legitimately be ±Inf (a lossless reconstruction has
		// infinite PSNR); only NaN is meaningless.
		if math.IsNaN(o.Achieved) {
			return fmt.Errorf("%w: objective achieved value is NaN", ErrHeader)
		}
	}
	return nil
}

// EncodedSize returns the exact byte length Encode will produce.
func (c Container) EncodedSize() int {
	header := 4 + 2 + 1 + 1 + 1 + len(c.Header.Codec) + 8 + 8 + 8*c.Header.Shape.NDims()
	if c.Header.Objective.Name != "" {
		header += 1 + len(c.Header.Objective.Name) + 8 + 8 + 8
	}
	if c.Header.Version == VersionBlocked {
		return header + 4 + 20*len(c.Blocks) + len(c.Payload)
	}
	return header + 8 + 4 + len(c.Payload)
}

// writer appends header fields to a buffer. It cannot fail (append grows the
// buffer), so unlike reader it carries no error; it exists to keep the field
// order readable and symmetric with reader.
type writer struct {
	buf []byte
}

func (w *writer) bytes(p []byte) { w.buf = append(w.buf, p...) }
func (w *writer) u8(v uint8)     { w.buf = append(w.buf, v) }
func (w *writer) u16(v uint16)   { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }
func (w *writer) u32(v uint32)   { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64)   { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *writer) f64(v float64)  { w.u64(math.Float64bits(v)) }
func (w *writer) str(s string)   { w.u8(uint8(len(s))); w.bytes([]byte(s)) }

// WriteTo streams the encoded container to w without staging the whole
// archive in memory: the header and the block index are assembled in a small
// buffer pre-sized from EncodedSize, and the payload — by far the bulk of the
// stream — is handed to w directly. The layout written is the one
// Header.Version names: version 1 carries its one block's length and CRC,
// version 2 the whole index. The header and index are validated first, so a
// Container assembled by hand fails here rather than producing a stream
// ReadFrom would reject.
//
// WriteTo implements io.WriterTo; the returned count is the number of bytes
// written, which equals EncodedSize on success.
func (c Container) WriteTo(dst io.Writer) (int64, error) {
	if err := c.Header.validate(); err != nil {
		return 0, err
	}
	if err := c.validateBlocks(); err != nil {
		return 0, err
	}
	head := pool.Get[byte](c.EncodedSize() - len(c.Payload))[:0]
	defer pool.Put(head)
	w := writer{buf: head}
	w.bytes(magic[:])
	w.u16(c.Header.Version)
	w.u8(uint8(c.Header.DType))
	rankByte := uint8(c.Header.Shape.NDims())
	if c.Header.Objective.Name != "" {
		rankByte |= objectiveFlag
	}
	w.u8(rankByte)
	w.str(c.Header.Codec)
	w.f64(c.Header.Bound)
	w.f64(c.Header.Ratio)
	for _, e := range c.Header.Shape {
		w.u64(uint64(e))
	}
	if c.Header.Objective.Name != "" {
		w.str(c.Header.Objective.Name)
		w.f64(c.Header.Objective.Target)
		w.f64(c.Header.Objective.Tolerance)
		w.f64(c.Header.Objective.Achieved)
	}
	if c.Header.Version == VersionBlocked {
		w.u32(uint32(len(c.Blocks)))
		for _, b := range c.Blocks {
			w.u64(b.Offset)
			w.u64(b.Length)
			w.u32(b.CRC)
		}
	} else {
		w.u64(c.Blocks[0].Length)
		w.u32(c.Blocks[0].CRC)
	}
	n, err := dst.Write(w.buf)
	written := int64(n)
	if err != nil {
		return written, err
	}
	n, err = dst.Write(c.Payload)
	written += int64(n)
	return written, err
}

// Encode serialises the container into one byte slice, pre-sized by
// EncodedSize. It is WriteTo into memory; prefer WriteTo when the stream
// goes to a file or socket anyway.
func (c Container) Encode() ([]byte, error) {
	buf := bytes.NewBuffer(make([]byte, 0, c.EncodedSize()))
	if _, err := c.WriteTo(buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// payloadChunk bounds how much payload memory a single read step commits to.
// A hostile header can declare any payload length; reading (and allocating)
// in chunks means memory grows only as fast as bytes actually arrive, so a
// short stream claiming a 2^60-byte payload fails after one chunk instead of
// attempting a giant allocation up front.
const payloadChunk = 1 << 20

// streamReader consumes header fields from an io.Reader with a sticky error:
// after the first failure every subsequent read returns zero values, and the
// caller checks s.err once at the end (the bitstream-style discipline the
// byte-slice decoder used, lifted onto a stream). It counts consumed bytes
// so ReadFrom can report them.
type streamReader struct {
	r       io.Reader
	n       int64
	err     error
	scratch [8]byte
}

func (s *streamReader) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// read fills p from the stream, mapping a premature end of stream to
// ErrTruncated. It reports whether the read succeeded.
func (s *streamReader) read(p []byte) bool {
	if s.err != nil {
		return false
	}
	n, err := io.ReadFull(s.r, p)
	s.n += int64(n)
	if err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			s.fail(fmt.Errorf("%w: need %d bytes at offset %d, stream ended after %d", ErrTruncated, len(p), s.n-int64(n), n))
		} else {
			s.fail(err)
		}
		return false
	}
	return true
}

func (s *streamReader) u8() uint8 {
	if !s.read(s.scratch[:1]) {
		return 0
	}
	return s.scratch[0]
}

func (s *streamReader) u16() uint16 {
	if !s.read(s.scratch[:2]) {
		return 0
	}
	return binary.LittleEndian.Uint16(s.scratch[:2])
}

func (s *streamReader) u32() uint32 {
	if !s.read(s.scratch[:4]) {
		return 0
	}
	return binary.LittleEndian.Uint32(s.scratch[:4])
}

func (s *streamReader) u64() uint64 {
	if !s.read(s.scratch[:8]) {
		return 0
	}
	return binary.LittleEndian.Uint64(s.scratch[:8])
}

func (s *streamReader) f64() float64 { return math.Float64frombits(s.u64()) }

func (s *streamReader) str() string {
	n := int(s.u8())
	if n == 0 || s.err != nil {
		return ""
	}
	p := make([]byte, n)
	if !s.read(p) {
		return ""
	}
	return string(p)
}

// appendPayload reads length payload bytes onto dst in bounded chunks,
// feeding each chunk to sum as it arrives so the CRC is verified
// incrementally — no second pass over the payload. Chunks start at
// payloadChunk and grow with the bytes already received (exponential
// trust): a hostile header can never make the reader allocate more than
// about twice what the stream actually delivered, while an honest large
// payload converges to a handful of doubling reads instead of thousands of
// fixed-size ones.
func (s *streamReader) appendPayload(dst []byte, length uint64, sum *crc32Digest) []byte {
	if s.err == nil && length > uint64(math.MaxInt-len(dst)) {
		s.fail(fmt.Errorf("%w: payload length %d overflows", ErrHeader, length))
	}
	for length > 0 && s.err == nil {
		n := payloadChunk
		if len(dst) > n {
			n = len(dst)
		}
		if length < uint64(n) {
			n = int(length)
		}
		dst = slices.Grow(dst, n)
		part := dst[len(dst) : len(dst)+n]
		if !s.read(part) {
			return dst
		}
		sum.write(part)
		dst = dst[:len(dst)+n]
		length -= uint64(n)
	}
	return dst
}

// crc32Digest accumulates a running CRC-32 (IEEE) over payload chunks.
type crc32Digest struct{ sum uint32 }

func (d *crc32Digest) write(p []byte) { d.sum = crc32.Update(d.sum, crc32.IEEETable, p) }

// ReadFrom parses one container from r, verifying the magic, version, header
// validity, and every block's CRC; a version-1 stream's length and CRC
// become a one-entry index. The payload is read — and its CRCs accumulated —
// incrementally in bounded chunks, so no whole-archive staging buffer is
// ever allocated and a hostile header cannot demand memory the stream does
// not back with bytes.
//
// ReadFrom implements io.ReaderFrom: it consumes exactly one container and
// leaves any following bytes unread, returning the byte count consumed. The
// receiver is only modified on success.
func (c *Container) ReadFrom(r io.Reader) (int64, error) {
	s := streamReader{r: r}
	var m [4]byte
	s.read(m[:])
	if s.err == nil && m != magic {
		return s.n, ErrBadMagic
	}
	var out Container
	out.Header.Version = s.u16()
	if s.err == nil && (out.Header.Version == 0 || out.Header.Version > maxVersion) {
		return s.n, fmt.Errorf("%w: %d (this build reads <= %d)", ErrVersion, out.Header.Version, maxVersion)
	}
	out.Header.DType = DType(s.u8())
	rankByte := s.u8()
	hasObjective := rankByte&objectiveFlag != 0
	rank := int(rankByte &^ objectiveFlag)
	if s.err == nil && (rank < 1 || rank > 4) {
		return s.n, fmt.Errorf("%w: rank %d (want 1..4)", ErrHeader, rank)
	}
	out.Header.Codec = s.str()
	out.Header.Bound = s.f64()
	out.Header.Ratio = s.f64()
	if s.err == nil {
		out.Header.Shape = make(grid.Dims, rank)
		for i := 0; i < rank; i++ {
			e := s.u64()
			if s.err == nil && (e == 0 || e > math.MaxInt32) {
				return s.n, fmt.Errorf("%w: extent %d in dimension %d", ErrHeader, e, i)
			}
			out.Header.Shape[i] = int(e)
		}
	}
	if hasObjective {
		out.Header.Objective.Name = s.str()
		if s.err == nil && out.Header.Objective.Name == "" {
			return s.n, fmt.Errorf("%w: objective flag set but name empty", ErrHeader)
		}
		out.Header.Objective.Target = s.f64()
		out.Header.Objective.Tolerance = s.f64()
		out.Header.Objective.Achieved = s.f64()
	}
	// Validate the header before committing to the payload: a stream with a
	// nonsense header is rejected without reading (or allocating for) the
	// payload bytes it claims to carry.
	if s.err == nil {
		if err := out.Header.validate(); err != nil {
			return s.n, err
		}
	}
	if out.Header.Version == VersionBlocked {
		count := s.u32()
		if s.err == nil {
			if err := out.Header.validateBlockCount(int(count)); err != nil {
				return s.n, err
			}
		}
		// The index grows entry by entry, so its memory too is backed by
		// bytes actually read.
		for i := uint32(0); i < count && s.err == nil; i++ {
			out.Blocks = append(out.Blocks, BlockEntry{Offset: s.u64(), Length: s.u64(), CRC: s.u32()})
		}
	} else {
		out.Blocks = []BlockEntry{{Length: s.u64(), CRC: s.u32()}}
	}
	if s.err != nil {
		return s.n, s.err
	}
	if _, err := indexEnd(out.Blocks); err != nil {
		return s.n, err
	}
	for i, b := range out.Blocks {
		var sum crc32Digest
		out.Payload = s.appendPayload(out.Payload, b.Length, &sum)
		if s.err != nil {
			return s.n, s.err
		}
		if sum.sum != b.CRC {
			return s.n, fmt.Errorf("%w (block %d)", ErrCorrupt, i)
		}
	}
	*c = out
	return s.n, nil
}

// Decode parses a byte slice produced by Encode: ReadFrom over the slice,
// plus a check that the container accounts for every byte — a slice is a
// complete archive, so trailing garbage is an error, unlike the stream case
// where following bytes belong to the caller. The payload is copied, so the
// input buffer may be reused.
func Decode(data []byte) (Container, error) {
	var c Container
	br := bytes.NewReader(data)
	if _, err := c.ReadFrom(br); err != nil {
		return Container{}, err
	}
	if br.Len() > 0 {
		return Container{}, fmt.Errorf("%w: %d trailing bytes after payload", ErrHeader, br.Len())
	}
	return c, nil
}

// String summarises the header for logs and CLI output.
func (h Header) String() string {
	s := fmt.Sprintf(".fraz v%d codec=%s dtype=%s shape=%s bound=%g ratio=%.2f",
		h.Version, h.Codec, h.DType, h.Shape, h.Bound, h.Ratio)
	if h.Objective.Name != "" {
		s += fmt.Sprintf(" objective=%s target=%g achieved=%g", h.Objective.Name, h.Objective.Target, h.Objective.Achieved)
	}
	return s
}
