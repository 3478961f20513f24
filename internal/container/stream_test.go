package container

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
	"testing/iotest"

	"fraz/internal/grid"
)

// randomContainer builds a structurally valid container with randomised
// header fields and payload, split into several blocks with probability one
// half. Both the property test and the streaming tests draw from it.
func randomContainer(t *testing.T, r *rand.Rand) Container {
	t.Helper()
	rank := 1 + r.Intn(4)
	shape := make(grid.Dims, rank)
	for i := range shape {
		shape[i] = 1 + r.Intn(9)
	}
	codec := make([]byte, 1+r.Intn(24))
	for i := range codec {
		codec[i] = byte('a' + r.Intn(26))
	}
	payload := make([]byte, r.Intn(1<<10))
	r.Read(payload)
	bound := r.Float64() * 10
	ratio := r.Float64() * 100
	dtype := Float32
	if r.Intn(2) == 0 {
		dtype = Float64
	}
	// An objective extension rides along on a third of the containers, so
	// every downstream property test covers extended headers too.
	var obj Objective
	if r.Intn(3) == 0 {
		obj = Objective{
			Name:      "psnr",
			Target:    20 + r.Float64()*80,
			Tolerance: r.Float64() * 5,
			Achieved:  20 + r.Float64()*80,
		}
	}

	n := 1
	if r.Intn(2) == 0 {
		n = 1 + r.Intn(shape[0])
	}
	payloads := make([][]byte, n)
	for i := range payloads {
		lo, hi := i*len(payload)/n, (i+1)*len(payload)/n
		payloads[i] = payload[lo:hi]
	}
	c, err := New(string(codec), bound, ratio, dtype, shape, payloads)
	if err != nil {
		t.Fatal(err)
	}
	c.Header.Objective = obj
	// A one-block container in the version-2 layout is a stream New never
	// writes but the format allows; it must round-trip in that layout.
	if n == 1 && r.Intn(4) == 0 {
		c.Header.Version = VersionBlocked
	}
	return c
}

func containersEqual(a, b Container) bool {
	if a.Header.Version != b.Header.Version || a.Header.Codec != b.Header.Codec ||
		a.Header.Bound != b.Header.Bound || a.Header.Ratio != b.Header.Ratio ||
		a.Header.DType != b.Header.DType || !a.Header.Shape.Equal(b.Header.Shape) ||
		a.Header.Objective != b.Header.Objective {
		return false
	}
	if !bytes.Equal(a.Payload, b.Payload) || len(a.Blocks) != len(b.Blocks) {
		return false
	}
	for i := range a.Blocks {
		if a.Blocks[i] != b.Blocks[i] {
			return false
		}
	}
	return true
}

// TestEncodedSizeMatchesEncode is the anti-drift property test: for random
// v1 and v2 containers, Encode must produce exactly EncodedSize bytes and
// WriteTo must report the same count. EncodedSize pre-sizes the streaming
// writer's header buffer and callers' output buffers, so any drift would
// reintroduce silent reallocation.
func TestEncodedSizeMatchesEncode(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		c := randomContainer(t, r)
		enc, err := c.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if len(enc) != c.EncodedSize() {
			t.Fatalf("case %d (v%d, %d blocks): len(Encode()) = %d, EncodedSize() = %d",
				i, c.Header.Version, len(c.Blocks), len(enc), c.EncodedSize())
		}
		var buf bytes.Buffer
		n, err := c.WriteTo(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(c.EncodedSize()) || !bytes.Equal(buf.Bytes(), enc) {
			t.Fatalf("case %d: WriteTo wrote %d bytes, want the %d Encode produced", i, n, len(enc))
		}
	}
}

// TestReadFromRoundTrip streams random containers through WriteTo/ReadFrom,
// including via a one-byte-at-a-time reader to exercise every incremental
// read path.
func TestReadFromRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		c := randomContainer(t, r)
		enc, err := c.Encode()
		if err != nil {
			t.Fatal(err)
		}
		for _, mk := range []func() io.Reader{
			func() io.Reader { return bytes.NewReader(enc) },
			func() io.Reader { return iotest.OneByteReader(bytes.NewReader(enc)) },
		} {
			var dec Container
			n, err := dec.ReadFrom(mk())
			if err != nil {
				t.Fatalf("case %d: ReadFrom: %v", i, err)
			}
			if n != int64(len(enc)) {
				t.Fatalf("case %d: ReadFrom consumed %d of %d bytes", i, n, len(enc))
			}
			if !containersEqual(c, dec) {
				t.Fatalf("case %d: round trip mismatch: %+v vs %+v", i, c.Header, dec.Header)
			}
		}
	}
}

// TestReadFromConsumesExactlyOneContainer checks the io.ReaderFrom contract:
// back-to-back containers on one stream decode sequentially, each ReadFrom
// stopping at its own container's last byte.
func TestReadFromConsumesExactlyOneContainer(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	a := randomContainer(t, r)
	b := randomContainer(t, r)
	var stream bytes.Buffer
	if _, err := a.WriteTo(&stream); err != nil {
		t.Fatal(err)
	}
	if _, err := b.WriteTo(&stream); err != nil {
		t.Fatal(err)
	}
	var da, db Container
	if _, err := da.ReadFrom(&stream); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ReadFrom(&stream); err != nil {
		t.Fatal(err)
	}
	if !containersEqual(a, da) || !containersEqual(b, db) {
		t.Fatalf("sequential decode mismatch")
	}
	if stream.Len() != 0 {
		t.Fatalf("%d bytes left after decoding both containers", stream.Len())
	}
}

// TestReadFromTruncated cuts streams short at every byte boundary: ReadFrom
// must fail (truncation or a header error caught early) and must leave the
// receiver untouched.
func TestReadFromTruncated(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 10; i++ {
		c := randomContainer(t, r)
		enc, err := c.Encode()
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(enc); cut++ {
			var dec Container
			if _, err := dec.ReadFrom(bytes.NewReader(enc[:cut])); err == nil {
				t.Fatalf("case %d: ReadFrom of %d/%d bytes succeeded", i, cut, len(enc))
			}
			if dec.Header.Codec != "" || dec.Payload != nil || dec.Blocks != nil {
				t.Fatalf("case %d cut %d: receiver modified on error: %+v", i, cut, dec)
			}
		}
	}
}

// TestReadFromCorruptBlockIndex tampers with a v2 block index in ways the
// streaming decoder must catch before or while reading payloads.
func TestReadFromCorruptBlockIndex(t *testing.T) {
	c := sampleBlocked(t)
	enc, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	headerLen := c.EncodedSize() - len(c.Payload) - 20*len(c.Blocks) - 4

	tamper := func(mutate func(b []byte)) error {
		bad := append([]byte(nil), enc...)
		mutate(bad)
		var dec Container
		_, err := dec.ReadFrom(bytes.NewReader(bad))
		return err
	}

	if err := tamper(func(b []byte) { b[headerLen] = 0xFF }); !errors.Is(err, ErrHeader) && !errors.Is(err, ErrTruncated) {
		t.Errorf("oversized block count: err = %v, want ErrHeader or ErrTruncated", err)
	}
	// Break contiguity: bump block 1's offset.
	if err := tamper(func(b []byte) { b[headerLen+4+20] += 1 }); !errors.Is(err, ErrHeader) {
		t.Errorf("non-contiguous index: err = %v, want ErrHeader", err)
	}
	// Flip a CRC byte: the matching block must fail its incremental check.
	if err := tamper(func(b []byte) { b[headerLen+4+16] ^= 0x01 }); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bad block CRC: err = %v, want ErrCorrupt", err)
	}
	// Flip a payload byte.
	if err := tamper(func(b []byte) { b[len(b)-1] ^= 0x01 }); !errors.Is(err, ErrCorrupt) {
		t.Errorf("corrupt payload: err = %v, want ErrCorrupt", err)
	}
}

// FuzzContainerReadFrom fuzzes the streaming decoder against arbitrary byte
// streams — truncated reads, corrupted block indexes, short payloads — and
// cross-checks it with the byte-slice Decode: whenever Decode accepts a
// slice, ReadFrom must accept the same bytes, consume all of them, and
// produce the identical container (and vice versa for the consumed prefix).
// The one-byte reader variant forces every incremental code path.
func FuzzContainerReadFrom(f *testing.F) {
	seed := func(c Container) []byte {
		enc, err := c.Encode()
		if err != nil {
			f.Fatal(err)
		}
		return enc
	}
	v1, err := New("sz:abs", 1e-3, 11.7, Float32, grid.MustDims(4, 8), [][]byte{{1, 2, 3, 4, 5}})
	if err != nil {
		f.Fatal(err)
	}
	v2, err := New("zfp:accuracy", 0.5, 4, Float32, grid.MustDims(6, 8), [][]byte{{1, 2, 3}, {4, 5}, {}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed(v1))
	f.Add(seed(v2))
	f.Add(seed(v1)[:11])              // truncated mid-header
	f.Add(seed(v2)[:len(seed(v2))-2]) // short payload
	f.Add(append(seed(v1), 0xAA))     // trailing byte
	corrupted := seed(v2)
	corrupted[len(corrupted)-1] ^= 0x01 // corrupted last block payload
	f.Add(corrupted)
	f.Add(oneBlockV2Bytes()) // the version-2 layout holding one block

	f.Fuzz(func(t *testing.T, data []byte) {
		var viaStream Container
		n, streamErr := viaStream.ReadFrom(bytes.NewReader(data))

		var viaOneByte Container
		n1, oneByteErr := viaOneByte.ReadFrom(iotest.OneByteReader(bytes.NewReader(data)))
		if (streamErr == nil) != (oneByteErr == nil) || n != n1 {
			t.Fatalf("chunking changed the outcome: (%d, %v) vs one-byte (%d, %v)", n, streamErr, n1, oneByteErr)
		}

		sliceDec, sliceErr := Decode(data)
		if sliceErr == nil {
			if streamErr != nil {
				t.Fatalf("Decode accepted %d bytes, ReadFrom rejected them: %v", len(data), streamErr)
			}
			if n != int64(len(data)) {
				t.Fatalf("Decode accepted %d bytes, ReadFrom consumed %d", len(data), n)
			}
			if !containersEqual(sliceDec, viaStream) {
				t.Fatalf("Decode and ReadFrom disagree: %+v vs %+v", sliceDec.Header, viaStream.Header)
			}
		}
		if streamErr == nil {
			if !containersEqual(viaStream, viaOneByte) {
				t.Fatalf("chunking changed the decoded container")
			}
			// The consumed prefix is a complete archive: Decode must agree.
			prefix, err := Decode(data[:n])
			if err != nil {
				t.Fatalf("ReadFrom consumed %d bytes Decode rejects: %v", n, err)
			}
			if !containersEqual(prefix, viaStream) {
				t.Fatalf("prefix Decode disagrees with ReadFrom")
			}
		} else if viaStream.Header.Codec != "" || viaStream.Payload != nil || viaStream.Blocks != nil {
			t.Fatalf("receiver modified on error: %+v", viaStream)
		}
	})
}
