package container

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"fraz/internal/grid"
)

// TestFloat64HeaderRoundTrip pins that the dtype byte survives an
// encode/decode round trip at both widths and that element sizes resolve.
func TestFloat64HeaderRoundTrip(t *testing.T) {
	for _, dt := range []DType{Float32, Float64} {
		c, err := New("sz:abs", 1e-3, 9.5, dt, grid.MustDims(3, 4), [][]byte{{1, 2, 3}})
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
		if dec.Header.DType != dt {
			t.Errorf("dtype = %v, want %v", dec.Header.DType, dt)
		}
	}
	if Float32.Size() != 4 || Float64.Size() != 8 || DType(7).Size() != 0 {
		t.Errorf("DType.Size table wrong: %d %d %d", Float32.Size(), Float64.Size(), DType(7).Size())
	}
	if Float32.String() != "float32" || Float64.String() != "float64" {
		t.Errorf("DType.String table wrong: %q %q", Float32, Float64)
	}
}

func TestParseDType(t *testing.T) {
	for name, want := range map[string]DType{"": Float32, "float32": Float32, "f32": Float32, "Float64": Float64, "f64": Float64} {
		if got, err := ParseDType(name); err != nil || got != want {
			t.Errorf("ParseDType(%q) = %v, %v, want %v", name, got, err, want)
		}
	}
	for _, d := range []DType{Float32, Float64} {
		if got, err := ParseDType(d.String()); err != nil || got != d {
			t.Errorf("ParseDType(%q) = %v, %v", d.String(), got, err)
		}
	}
	if _, err := ParseDType("int8"); err == nil {
		t.Error("ParseDType(int8) should fail")
	}
}

// TestUnknownDTypeRejected pins that constructors and the decoder both
// reject dtype bytes this build does not understand, instead of carrying an
// undecodable payload around.
func TestUnknownDTypeRejected(t *testing.T) {
	if _, err := New("sz:abs", 1e-3, 9.5, DType(7), grid.MustDims(4), [][]byte{{1}}); !errors.Is(err, ErrHeader) {
		t.Errorf("New with dtype 7: err = %v, want ErrHeader", err)
	}
	c, err := New("sz:abs", 1e-3, 9.5, Float32, grid.MustDims(4), [][]byte{{1}})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	enc[6] = 7 // dtype byte
	if _, err := Decode(enc); !errors.Is(err, ErrHeader) {
		t.Errorf("Decode with dtype 7: err = %v, want ErrHeader", err)
	}
}

// float64ArchiveBytes hand-assembles a version-1 dtype=1 container for the
// documented layout: a 2x3 float64 "sz:abs" field with a 5-byte payload.
func float64ArchiveBytes(t testing.TB) []byte {
	payload := []byte{0xde, 0xad, 0xbe, 0xef, 0x01}
	var b bytes.Buffer
	b.Write([]byte{'F', 'R', 'Z', 0x01})                          // magic
	b.Write([]byte{0x01, 0x00})                                   // version 1
	b.WriteByte(0x01)                                             // dtype = float64
	b.WriteByte(0x02)                                             // rank 2, no extension flag
	b.WriteByte(6)                                                // codec name length
	b.WriteString("sz:abs")                                       //
	binary.Write(&b, binary.LittleEndian, math.Float64bits(0.25)) // bound
	binary.Write(&b, binary.LittleEndian, math.Float64bits(7.5))  // ratio
	binary.Write(&b, binary.LittleEndian, uint64(2))              // extent 0
	binary.Write(&b, binary.LittleEndian, uint64(3))              // extent 1
	binary.Write(&b, binary.LittleEndian, uint64(len(payload)))   // payload length
	binary.Write(&b, binary.LittleEndian, crc32IEEE(payload))     // CRC
	b.Write(payload)
	return b.Bytes()
}

// TestFloat64ContainerHandAssembled decodes a dtype=1 stream assembled by
// hand against the documented layout — not via Encode — and pins that Encode
// reproduces those bytes exactly, so the float64 wire format cannot drift.
func TestFloat64ContainerHandAssembled(t *testing.T) {
	raw := float64ArchiveBytes(t)
	c, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	h := c.Header
	if h.Version != 1 || h.DType != Float64 || h.Codec != "sz:abs" ||
		h.Bound != 0.25 || h.Ratio != 7.5 || !h.Shape.Equal(grid.MustDims(2, 3)) {
		t.Fatalf("decoded header %+v", h)
	}
	enc, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, raw) {
		t.Errorf("Encode does not reproduce the hand-assembled dtype=1 bytes\n got %x\nwant %x", enc, raw)
	}
}

// FuzzReadFromFloat64 throws mutated dtype=1 archives at ReadFrom:
// truncations, corrupted block indexes, and dtype/length mutations must
// produce errors, never panics, and whatever decodes must re-encode to the
// bytes it was read from, a stream that decodes identically.
func FuzzReadFromFloat64(f *testing.F) {
	f.Add(float64ArchiveBytes(f))

	// A blocked (v2) dtype=1 archive with three blocks.
	blocked, err := New("zfp:accuracy", 1e-2, 4, Float64, grid.MustDims(6, 2),
		[][]byte{{1, 2, 3}, {4, 5}, {}})
	if err != nil {
		f.Fatal(err)
	}
	bEnc, err := blocked.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bEnc)
	// Seeds for the classic failure classes: truncation, a corrupted block
	// index entry, and a flipped dtype byte.
	f.Add(bEnc[:len(bEnc)/2])
	corrupt := append([]byte(nil), bEnc...)
	corrupt[len(corrupt)-len(blocked.Payload)-3] ^= 0xff
	f.Add(corrupt)
	flipped := append([]byte(nil), float64ArchiveBytes(f)...)
	flipped[6] = 0 // claims float32 for a float64 archive's sizes
	f.Add(flipped)
	flipped2 := append([]byte(nil), float64ArchiveBytes(f)...)
	flipped2[6] = 42 // unknown dtype must error
	f.Add(flipped2)
	f.Add(oneBlockV2Bytes()) // must re-encode in the version-2 layout it came in

	f.Fuzz(func(t *testing.T, data []byte) {
		var c Container
		n, err := c.ReadFrom(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Whatever decoded must carry a dtype this build understands...
		if c.Header.DType.Size() == 0 {
			t.Fatalf("decoded container with unknown dtype %d", c.Header.DType)
		}
		// ...re-encode to the very bytes it was read from, in whichever
		// layout they came...
		enc, err := c.Encode()
		if err != nil {
			t.Fatalf("decoded container does not re-encode: %v", err)
		}
		if !bytes.Equal(enc, data[:n]) {
			t.Fatalf("v%d stream with %d blocks re-encodes to other bytes:\n got %x\nwant %x", c.Header.Version, len(c.Blocks), enc, data[:n])
		}
		// ...and survive a re-encode/decode round trip unchanged.
		c2, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-encoded container does not decode: %v", err)
		}
		if c2.Header.DType != c.Header.DType || !c2.Header.Shape.Equal(c.Header.Shape) ||
			!bytes.Equal(c2.Payload, c.Payload) {
			t.Fatalf("round trip changed the container: %+v vs %+v", c.Header, c2.Header)
		}
	})
}

func crc32IEEE(p []byte) uint32 {
	var d crc32Digest
	d.write(p)
	return d.sum
}
