package container

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"strings"
	"testing"

	"fraz/internal/grid"
)

func sample(t *testing.T) Container {
	t.Helper()
	c, err := New("sz:abs", 1e-3, 11.7, Float32, grid.MustDims(4, 8, 16), [][]byte{{1, 2, 3, 4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRoundTrip(t *testing.T) {
	c := sample(t)
	enc, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) != c.EncodedSize() {
		t.Errorf("EncodedSize = %d, encoded %d bytes", c.EncodedSize(), len(enc))
	}
	dec, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Header.Version != Version || dec.Header.Codec != "sz:abs" ||
		dec.Header.Bound != 1e-3 || dec.Header.Ratio != 11.7 ||
		dec.Header.DType != Float32 || !dec.Header.Shape.Equal(c.Header.Shape) {
		t.Errorf("header mismatch: %+v", dec.Header)
	}
	if !bytes.Equal(dec.Payload, c.Payload) {
		t.Errorf("payload mismatch: %v", dec.Payload)
	}
}

func TestRoundTripEmptyPayload(t *testing.T) {
	c, err := New("flate:lossless", 0, 1, Float32, grid.MustDims(1), [][]byte{nil})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Payload) != 0 {
		t.Errorf("payload = %v, want empty", dec.Payload)
	}
}

func TestDecodeRejectsBadMagic(t *testing.T) {
	c := sample(t)
	enc, _ := c.Encode()
	enc[0] = 'X'
	if _, err := Decode(enc); !errors.Is(err, ErrBadMagic) {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
	if _, err := Decode([]byte("not a fraz file at all")); !errors.Is(err, ErrBadMagic) {
		t.Errorf("text input: err = %v, want ErrBadMagic", err)
	}
}

func TestDecodeRejectsFutureVersion(t *testing.T) {
	c := sample(t)
	enc, _ := c.Encode()
	enc[4] = 0xFF // bump the version field
	enc[5] = 0x7F
	if _, err := Decode(enc); !errors.Is(err, ErrVersion) {
		t.Errorf("err = %v, want ErrVersion", err)
	}
}

func TestDecodeRejectsCorruptPayload(t *testing.T) {
	c := sample(t)
	enc, _ := c.Encode()
	enc[len(enc)-1] ^= 0x40 // flip a payload bit under the CRC
	if _, err := Decode(enc); !errors.Is(err, ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", err)
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	c := sample(t)
	enc, _ := c.Encode()
	for _, cut := range []int{1, 5, 9, len(enc) / 2, len(enc) - 1} {
		if _, err := Decode(enc[:cut]); err == nil {
			t.Errorf("Decode of %d/%d bytes should fail", cut, len(enc))
		}
	}
}

func TestDecodeRejectsTrailingGarbage(t *testing.T) {
	c := sample(t)
	enc, _ := c.Encode()
	if _, err := Decode(append(enc, 0)); !errors.Is(err, ErrHeader) {
		t.Errorf("err = %v, want ErrHeader for trailing bytes", err)
	}
}

func TestNewValidatesHeader(t *testing.T) {
	shape := grid.MustDims(8)
	cases := []struct {
		name  string
		codec string
		bound float64
		ratio float64
		shape grid.Dims
	}{
		{"empty codec", "", 1, 1, shape},
		{"long codec", strings.Repeat("x", 256), 1, 1, shape},
		{"nan bound", "sz:abs", math.NaN(), 1, shape},
		{"negative bound", "sz:abs", -5, 1, shape},
		{"inf ratio", "sz:abs", 1, math.Inf(1), shape},
		{"negative ratio", "sz:abs", 1, -1, shape},
		{"nil shape", "sz:abs", 1, 1, nil},
	}
	for _, tc := range cases {
		if _, err := New(tc.codec, tc.bound, tc.ratio, Float32, tc.shape, [][]byte{nil}); !errors.Is(err, ErrHeader) {
			t.Errorf("%s: err = %v, want ErrHeader", tc.name, err)
		}
	}
}

func TestEncodeValidatesHandAssembledHeader(t *testing.T) {
	c := Container{Header: Header{Version: Version, Codec: "sz:abs", DType: 99, Shape: grid.MustDims(4)}}
	if _, err := c.Encode(); !errors.Is(err, ErrHeader) {
		t.Errorf("unknown dtype: err = %v, want ErrHeader", err)
	}
}

func TestDecodeRejectsZeroExtent(t *testing.T) {
	c := sample(t)
	enc, _ := c.Encode()
	// The first extent's u64 starts after magic(4) version(2) dtype(1)
	// rank(1) len(1)+codec(6) bound(8) ratio(8).
	off := 4 + 2 + 1 + 1 + 1 + len(c.Header.Codec) + 8 + 8
	for i := 0; i < 8; i++ {
		enc[off+i] = 0
	}
	if _, err := Decode(enc); !errors.Is(err, ErrHeader) {
		t.Errorf("err = %v, want ErrHeader for zero extent", err)
	}
}

func TestHeaderString(t *testing.T) {
	s := sample(t).Header.String()
	for _, want := range []string{"sz:abs", "float32", "4x8x16", "0.001"} {
		if !strings.Contains(s, want) {
			t.Errorf("Header.String() = %q missing %q", s, want)
		}
	}
}

func sampleBlocked(t *testing.T) Container {
	t.Helper()
	payloads := [][]byte{{1, 2, 3}, {4, 5}, {6, 7, 8, 9}}
	c, err := New("sz:abs", 1e-3, 11.7, Float32, grid.MustDims(6, 8, 16), payloads)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBlockedRoundTrip(t *testing.T) {
	c := sampleBlocked(t)
	enc, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) != c.EncodedSize() {
		t.Errorf("EncodedSize = %d, encoded %d bytes", c.EncodedSize(), len(enc))
	}
	dec, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Header.Version != VersionBlocked || len(dec.Blocks) != 3 {
		t.Fatalf("decoded version %d with %d blocks, want v%d with 3", dec.Header.Version, len(dec.Blocks), VersionBlocked)
	}
	want := [][]byte{{1, 2, 3}, {4, 5}, {6, 7, 8, 9}}
	for i, w := range want {
		p, err := dec.BlockPayload(i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(p, w) {
			t.Errorf("block %d payload = %v, want %v", i, p, w)
		}
	}
	if !bytes.Equal(dec.Payload, c.Payload) {
		t.Errorf("concatenated payload mismatch")
	}

	// A one-block version-2 stream is one New never writes, but the format
	// allows it: it decodes to its one-entry index and re-encodes to itself.
	one := oneBlockV2Bytes()
	dec, err = Decode(one)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Header.Version != VersionBlocked || len(dec.Blocks) != 1 || !bytes.Equal(dec.Payload, []byte{9, 8, 7}) {
		t.Errorf("one-block v2 stream decoded as v%d with index %+v and payload %v", dec.Header.Version, dec.Blocks, dec.Payload)
	}
	if again, err := dec.Encode(); err != nil || !bytes.Equal(again, one) {
		t.Errorf("one-block v2 stream re-encodes to %x, %v; want %x", again, err, one)
	}
}

// oneBlockV2Bytes hand-assembles a version-2 stream with a one-entry block
// index: a 16-value float32 "sz" field whose one block holds 3 bytes.
func oneBlockV2Bytes() []byte {
	payload := []byte{9, 8, 7}
	var enc []byte
	enc = append(enc, 'F', 'R', 'Z', 0x01) // magic
	enc = append(enc, 2, 0)                // version 2
	enc = append(enc, 0)                   // dtype float32
	enc = append(enc, 1)                   // rank 1
	enc = append(enc, 2, 's', 'z')         // codec "sz"
	enc = binary.LittleEndian.AppendUint64(enc, math.Float64bits(0.5))
	enc = binary.LittleEndian.AppendUint64(enc, math.Float64bits(4))
	enc = binary.LittleEndian.AppendUint64(enc, 16) // shape
	enc = binary.LittleEndian.AppendUint32(enc, 1)  // block count
	enc = binary.LittleEndian.AppendUint64(enc, 0)  // block 0 offset
	enc = binary.LittleEndian.AppendUint64(enc, 3)  // block 0 length
	enc = binary.LittleEndian.AppendUint32(enc, crc32.ChecksumIEEE(payload))
	return append(enc, payload...)
}

func TestBlockedRejectsPerBlockCorruption(t *testing.T) {
	c := sampleBlocked(t)
	enc, _ := c.Encode()
	// Flip one byte inside the middle block's payload.
	mid := len(enc) - len(c.Payload) + int(c.Blocks[1].Offset)
	enc[mid] ^= 0x10
	if _, err := Decode(enc); !errors.Is(err, ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt for a corrupted block", err)
	}
}

func TestBlockedRejectsTruncation(t *testing.T) {
	c := sampleBlocked(t)
	enc, _ := c.Encode()
	for _, cut := range []int{7, 40, len(enc) - len(c.Payload) + 1, len(enc) - 1} {
		if _, err := Decode(enc[:cut]); err == nil {
			t.Errorf("Decode of %d/%d bytes should fail", cut, len(enc))
		}
	}
	if _, err := Decode(append(append([]byte(nil), enc...), 0)); !errors.Is(err, ErrHeader) {
		t.Errorf("trailing garbage should be rejected")
	}
}

func TestNewValidatesBlockCount(t *testing.T) {
	// More blocks than slowest-axis rows cannot come from a valid plan.
	payloads := [][]byte{{1}, {2}, {3}, {4}}
	if _, err := New("sz:abs", 1e-3, 2, Float32, grid.MustDims(3, 8), payloads); !errors.Is(err, ErrHeader) {
		t.Errorf("err = %v, want ErrHeader for 4 blocks over 3 rows", err)
	}
	if _, err := New("sz:abs", 1e-3, 2, Float32, grid.MustDims(3, 8), nil); !errors.Is(err, ErrHeader) {
		t.Errorf("err = %v, want ErrHeader for zero blocks", err)
	}
	// The version follows the block count.
	for n, want := range map[int]uint16{1: Version, 2: VersionBlocked, 3: VersionBlocked} {
		c, err := New("sz:abs", 1e-3, 2, Float32, grid.MustDims(3, 8), payloads[:n])
		if err != nil || c.Header.Version != want || len(c.Blocks) != n {
			t.Errorf("%d blocks: v%d with %d index entries, %v; want v%d with %d", n, c.Header.Version, len(c.Blocks), err, want, n)
		}
	}
	// A hand-assembled index must match the version it is written as.
	c := sampleBlocked(t)
	c.Header.Version = Version
	if _, err := c.Encode(); !errors.Is(err, ErrHeader) {
		t.Errorf("three blocks in the version-1 layout: err = %v, want ErrHeader", err)
	}
	c.Header.Version = 3
	if _, err := c.Encode(); !errors.Is(err, ErrVersion) {
		t.Errorf("version 3: err = %v, want ErrVersion", err)
	}
}

func TestBlockedEncodeValidatesHandAssembledIndex(t *testing.T) {
	c := sampleBlocked(t)
	c.Blocks[1].Offset++ // break contiguity
	if _, err := c.Encode(); !errors.Is(err, ErrHeader) {
		t.Errorf("err = %v, want ErrHeader for a gap in the index", err)
	}
	c = sampleBlocked(t)
	c.Blocks[2].Length-- // index no longer covers the payload
	if _, err := c.Encode(); !errors.Is(err, ErrHeader) {
		t.Errorf("err = %v, want ErrHeader for an index/payload size mismatch", err)
	}
}

// TestV1StreamStillDecodes pins the version-1 wire format: a byte stream
// assembled by hand against the documented layout (not via Encode) must
// keep decoding unchanged after the format gained version 2.
func TestV1StreamStillDecodes(t *testing.T) {
	payload := []byte{9, 8, 7}
	var enc []byte
	enc = append(enc, 'F', 'R', 'Z', 0x01) // magic
	enc = append(enc, 1, 0)                // version 1
	enc = append(enc, 0)                   // dtype float32
	enc = append(enc, 1)                   // rank 1
	enc = append(enc, 2, 's', 'z')         // codec "sz"
	bound := make([]byte, 8)
	binary.LittleEndian.PutUint64(bound, math.Float64bits(0.5))
	enc = append(enc, bound...)
	ratio := make([]byte, 8)
	binary.LittleEndian.PutUint64(ratio, math.Float64bits(4))
	enc = append(enc, ratio...)
	ext := make([]byte, 8)
	binary.LittleEndian.PutUint64(ext, 16)
	enc = append(enc, ext...)
	plen := make([]byte, 8)
	binary.LittleEndian.PutUint64(plen, uint64(len(payload)))
	enc = append(enc, plen...)
	crc := make([]byte, 4)
	binary.LittleEndian.PutUint32(crc, crc32.ChecksumIEEE(payload))
	enc = append(enc, crc...)
	enc = append(enc, payload...)

	dec, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Header.Version != 1 || dec.Header.Codec != "sz" || dec.Header.Bound != 0.5 ||
		dec.Header.Ratio != 4 || !dec.Header.Shape.Equal(grid.MustDims(16)) {
		t.Errorf("v1 header mismatch: %+v", dec.Header)
	}
	if want := (BlockEntry{Offset: 0, Length: 3, CRC: crc32.ChecksumIEEE(payload)}); len(dec.Blocks) != 1 || dec.Blocks[0] != want {
		t.Errorf("v1 stream decoded to index %+v, want the one entry %+v", dec.Blocks, want)
	}
	if !bytes.Equal(dec.Payload, payload) {
		t.Errorf("v1 payload mismatch: %v", dec.Payload)
	}
	if p, err := dec.BlockPayload(0); err != nil || !bytes.Equal(p, payload) {
		t.Errorf("BlockPayload(0) = %v, %v", p, err)
	}
	// A one-block New writes exactly these bytes, and keeps the payload by
	// reference.
	c, err := New("sz", 0.5, 4, Float32, grid.MustDims(16), [][]byte{payload})
	if err != nil {
		t.Fatal(err)
	}
	if &c.Payload[0] != &payload[0] {
		t.Error("one-block New copied its payload")
	}
	if got, err := c.Encode(); err != nil || !bytes.Equal(got, enc) {
		t.Errorf("one-block New encodes to %x, %v; want the v1 bytes %x", got, err, enc)
	}
}

// FuzzContainerRoundTrip checks that any container that encodes also decodes
// to an identical value, and that flipping any payload byte is rejected by
// the CRC.
func FuzzContainerRoundTrip(f *testing.F) {
	f.Add("sz:abs", 1e-4, 12.5, uint8(3), 7, []byte{1, 2, 3})
	f.Add("zfp:rate", 8.0, 4.0, uint8(1), 100, []byte{})
	f.Add("mgard:abs", 0.5, 1.0, uint8(4), 2, []byte{0xFF, 0x00})
	f.Fuzz(func(t *testing.T, codec string, bound, ratio float64, rank uint8, extent int, payload []byte) {
		r := int(rank%4) + 1
		if extent <= 0 {
			extent = -extent + 1
		}
		extent = extent%16 + 1
		shape := make(grid.Dims, r)
		for i := range shape {
			shape[i] = extent + i
		}
		c, err := New(codec, bound, ratio, Float32, shape, [][]byte{payload})
		if err != nil {
			return // invalid header inputs are allowed to be rejected
		}
		enc, err := c.Encode()
		if err != nil {
			t.Fatalf("New accepted but Encode failed: %v", err)
		}
		dec, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode of valid stream failed: %v", err)
		}
		if dec.Header.Codec != c.Header.Codec || dec.Header.Bound != c.Header.Bound ||
			dec.Header.Ratio != c.Header.Ratio || !dec.Header.Shape.Equal(c.Header.Shape) {
			t.Fatalf("header round trip mismatch: sent %+v got %+v", c.Header, dec.Header)
		}
		if !bytes.Equal(dec.Payload, c.Payload) {
			t.Fatalf("payload round trip mismatch")
		}
		if len(payload) > 0 {
			bad := append([]byte(nil), enc...)
			bad[len(bad)-1] ^= 0x01
			if _, err := Decode(bad); err == nil {
				t.Fatalf("corrupted payload byte not rejected")
			}
		}
	})
}

// FuzzBlockedContainerRoundTrip is the version-2 counterpart: arbitrary
// payload bytes split into blocks must round-trip through the blocked
// encoding, and flipping any payload byte must trip a per-block CRC.
func FuzzBlockedContainerRoundTrip(f *testing.F) {
	f.Add("sz:abs", 1e-4, 12.5, uint8(3), 7, uint8(4), []byte{1, 2, 3, 4, 5, 6, 7})
	f.Add("zfp:accuracy", 0.5, 4.0, uint8(1), 9, uint8(2), []byte{0xFF, 0x00})
	f.Add("flate:lossless", 0.0, 1.0, uint8(2), 3, uint8(3), []byte{})
	f.Fuzz(func(t *testing.T, codec string, bound, ratio float64, rank uint8, extent int, nBlocks uint8, blob []byte) {
		r := int(rank%4) + 1
		if extent <= 0 {
			extent = -extent + 1
		}
		extent = extent%16 + 1
		shape := make(grid.Dims, r)
		for i := range shape {
			shape[i] = extent + i
		}
		n := int(nBlocks)%shape[0] + 1
		// Slice the fuzzed blob into n payloads (some possibly empty).
		payloads := make([][]byte, n)
		for i := range payloads {
			lo, hi := i*len(blob)/n, (i+1)*len(blob)/n
			payloads[i] = blob[lo:hi]
		}
		c, err := New(codec, bound, ratio, Float32, shape, payloads)
		if err != nil {
			return // invalid header inputs are allowed to be rejected
		}
		enc, err := c.Encode()
		if err != nil {
			t.Fatalf("New accepted but Encode failed: %v", err)
		}
		dec, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode of valid blocked stream failed: %v", err)
		}
		version := uint16(VersionBlocked)
		if n == 1 {
			version = Version
		}
		if dec.Header.Version != version || len(dec.Blocks) != n {
			t.Fatalf("decoded v%d with %d blocks, want v%d with %d", dec.Header.Version, len(dec.Blocks), version, n)
		}
		for i := range payloads {
			p, err := dec.BlockPayload(i)
			if err != nil || !bytes.Equal(p, payloads[i]) {
				t.Fatalf("block %d payload mismatch: %v, %v", i, p, err)
			}
		}
		if len(blob) > 0 {
			bad := append([]byte(nil), enc...)
			bad[len(bad)-1-len(blob)/2] ^= 0x01
			if _, err := Decode(bad); err == nil {
				t.Fatalf("corrupted blocked payload byte not rejected")
			}
		}
	})
}

// TestObjectiveExtensionRoundTrip pins the v2-compatible objective header
// extension: an objective recorded on a monolithic or blocked container
// survives Encode/Decode and streaming ReadFrom, and shows up in String.
func TestObjectiveExtensionRoundTrip(t *testing.T) {
	obj := Objective{Name: "psnr", Target: 60, Tolerance: 3, Achieved: 61.2}
	for _, blocked := range []bool{false, true} {
		c := sample(t)
		if blocked {
			c = sampleBlocked(t)
		}
		c.Header.Objective = obj
		enc, err := c.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if len(enc) != c.EncodedSize() {
			t.Errorf("blocked=%v: encoded %d bytes, EncodedSize says %d", blocked, len(enc), c.EncodedSize())
		}
		dec, err := Decode(enc)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Header.Objective != obj {
			t.Errorf("blocked=%v: objective round trip = %+v, want %+v", blocked, dec.Header.Objective, obj)
		}
		if !bytes.Equal(dec.Payload, c.Payload) {
			t.Errorf("blocked=%v: payload corrupted by objective extension", blocked)
		}
		if s := dec.Header.String(); !strings.Contains(s, "objective=psnr") {
			t.Errorf("String() omits the objective: %q", s)
		}
	}
}

// TestObjectiveExtensionByteCompat pins that containers WITHOUT an objective
// still encode byte-for-byte what the pre-extension format produced: the
// rank byte carries no flag and no extension bytes appear, so fixed-ratio
// archives stay readable by earlier builds.
func TestObjectiveExtensionByteCompat(t *testing.T) {
	c := sample(t)
	enc, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if enc[7] != 3 {
		t.Errorf("rank byte = %#x, want plain rank 3 with no objective flag", enc[7])
	}
	// Reconstruct the documented pre-extension layout by hand and compare.
	var want []byte
	want = append(want, 'F', 'R', 'Z', 0x01)
	want = append(want, 1, 0) // version 1
	want = append(want, 0)    // dtype
	want = append(want, 3)    // rank
	want = append(want, byte(len("sz:abs")))
	want = append(want, "sz:abs"...)
	want = binary.LittleEndian.AppendUint64(want, math.Float64bits(1e-3))
	want = binary.LittleEndian.AppendUint64(want, math.Float64bits(11.7))
	for _, e := range []uint64{4, 8, 16} {
		want = binary.LittleEndian.AppendUint64(want, e)
	}
	want = binary.LittleEndian.AppendUint64(want, uint64(len(c.Payload)))
	want = binary.LittleEndian.AppendUint32(want, crc32.ChecksumIEEE(c.Payload))
	want = append(want, c.Payload...)
	if !bytes.Equal(enc, want) {
		t.Errorf("no-objective encoding drifted from the pre-extension layout:\n got %x\nwant %x", enc, want)
	}
}

// TestObjectiveExtensionHandAssembled decodes a hand-assembled extended
// stream against the documented layout, independent of Encode.
func TestObjectiveExtensionHandAssembled(t *testing.T) {
	payload := []byte{9, 8, 7}
	var enc []byte
	enc = append(enc, 'F', 'R', 'Z', 0x01)
	enc = append(enc, 1, 0)        // version 1
	enc = append(enc, 0)           // dtype float32
	enc = append(enc, 0x80|1)      // objective flag | rank 1
	enc = append(enc, 2, 's', 'z') // codec "sz"
	enc = binary.LittleEndian.AppendUint64(enc, math.Float64bits(0.5))
	enc = binary.LittleEndian.AppendUint64(enc, math.Float64bits(4))
	enc = binary.LittleEndian.AppendUint64(enc, 16) // shape
	enc = append(enc, byte(len("ssim")))
	enc = append(enc, "ssim"...)
	enc = binary.LittleEndian.AppendUint64(enc, math.Float64bits(0.95))
	enc = binary.LittleEndian.AppendUint64(enc, math.Float64bits(0.02))
	enc = binary.LittleEndian.AppendUint64(enc, math.Float64bits(0.961))
	enc = binary.LittleEndian.AppendUint64(enc, uint64(len(payload)))
	enc = binary.LittleEndian.AppendUint32(enc, crc32.ChecksumIEEE(payload))
	enc = append(enc, payload...)

	dec, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	want := Objective{Name: "ssim", Target: 0.95, Tolerance: 0.02, Achieved: 0.961}
	if dec.Header.Objective != want {
		t.Errorf("decoded objective = %+v, want %+v", dec.Header.Objective, want)
	}
	if !dec.Header.Shape.Equal(grid.MustDims(16)) {
		t.Errorf("rank bits misparsed: shape %v", dec.Header.Shape)
	}

	// Truncating inside the extension is ErrTruncated, not a misparse.
	if _, err := Decode(enc[:20]); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated extension: err = %v, want ErrTruncated", err)
	}
}

// TestObjectiveValidation rejects malformed objective headers at encode time.
func TestObjectiveValidation(t *testing.T) {
	cases := []struct {
		name string
		obj  Objective
	}{
		{"NaN target", Objective{Name: "psnr", Target: math.NaN()}},
		{"Inf target", Objective{Name: "psnr", Target: math.Inf(1)}},
		{"negative tolerance", Objective{Name: "psnr", Target: 60, Tolerance: -1}},
		{"NaN achieved", Objective{Name: "psnr", Target: 60, Achieved: math.NaN()}},
		{"overlong name", Objective{Name: strings.Repeat("x", 256), Target: 60}},
	}
	for _, tc := range cases {
		c := sample(t)
		c.Header.Objective = tc.obj
		if _, err := c.Encode(); !errors.Is(err, ErrHeader) {
			t.Errorf("%s: Encode err = %v, want ErrHeader", tc.name, err)
		}
	}
	// An infinite achieved value (lossless PSNR) is legal.
	c := sample(t)
	c.Header.Objective = Objective{Name: "psnr", Target: 60, Tolerance: 3, Achieved: math.Inf(1)}
	enc, err := c.Encode()
	if err != nil {
		t.Fatalf("infinite achieved value rejected: %v", err)
	}
	dec, err := Decode(enc)
	if err != nil || !math.IsInf(dec.Header.Objective.Achieved, 1) {
		t.Errorf("infinite achieved round trip = %+v, %v", dec.Header.Objective, err)
	}
}
