package codestream

import (
	"bytes"
	"errors"
	"testing"

	"fraz/internal/grid"
	"fraz/internal/huffman"
)

// roundTrip encodes, decodes and compares, and returns the flag Encode chose.
func roundTrip[T grid.Float](t *testing.T, codes []int32, literals []T, head ...[]byte) byte {
	t.Helper()
	body, flag, err := Encode(codes, literals, head...)
	if err != nil {
		t.Fatal(err)
	}
	limit := MaxBody(len(codes), grid.ElemSize[T](), len(codes), 0)
	for _, chunk := range head {
		limit += 4 + int64(len(chunk))
	}
	gotHead, gotCodes, gotLits, err := Decode[T](body, flag, limit, len(head))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range head {
		if !bytes.Equal(gotHead[i], want) {
			t.Fatalf("head chunk %q read back as %q", want, gotHead[i])
		}
	}
	if len(gotCodes) != len(codes) || len(gotLits) != len(literals) {
		t.Fatalf("decoded %d codes and %d literals, want %d and %d", len(gotCodes), len(gotLits), len(codes), len(literals))
	}
	for i := range codes {
		if gotCodes[i] != codes[i] {
			t.Fatalf("code %d: %d, want %d", i, gotCodes[i], codes[i])
		}
	}
	for i := range literals {
		if gotLits[i] != literals[i] {
			t.Fatalf("literal %d: %v, want %v", i, gotLits[i], literals[i])
		}
	}
	return flag
}

func TestRoundTrip(t *testing.T) {
	skewed := make([]int32, 5000)
	distinct := make([]int32, 5000) // the worst case MaxBody allows for: every code its own table entry
	for i := range skewed {
		skewed[i] = int32(i % 3)
		distinct[i] = int32(i * 7919)
	}
	// Both of Decode's branches are reached: the skewed codes deflate, the
	// empty body cannot shrink and is stored as it is.
	if flag := roundTrip(t, skewed, []float32{1.5, -2.25}, []byte("block records"), nil); flag != 1 {
		t.Errorf("5000 codes over three symbols stored with flag %d, want the DEFLATE stream", flag)
	}
	roundTrip(t, distinct, []float64{1e300, -1e-300, 0})
	if flag := roundTrip[float32](t, nil, nil); flag != 0 {
		t.Errorf("an empty body stored with flag %d, want the plain body", flag)
	}
}

func TestReadChunk(t *testing.T) {
	body, err := appendChunk(nil, []byte("ab"))
	if err == nil {
		body, err = appendChunk(body, nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	chunk, rest, err := ReadChunk(body)
	if err != nil || string(chunk) != "ab" {
		t.Fatalf("first chunk %q, %v", chunk, err)
	}
	chunk, rest, err = ReadChunk(rest)
	if err != nil || len(chunk) != 0 || len(rest) != 0 {
		t.Fatalf("empty chunk %q, rest %d, %v", chunk, len(rest), err)
	}
	for _, bad := range [][]byte{nil, {1, 0, 0}, {5, 0, 0, 0, 'a'}, {0xff, 0xff, 0xff, 0xff}} {
		if _, _, err := ReadChunk(bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("ReadChunk(% x): %v, want ErrCorrupt", bad, err)
		}
	}
}

func TestInflateStopsAtLimit(t *testing.T) {
	body, flag, err := Encode[float32](make([]int32, 1<<16), nil)
	if err != nil || flag != 1 {
		t.Fatalf("flag=%d, %v", flag, err)
	}
	raw, err := Inflate(body, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Inflate(body, int64(len(raw))); err != nil {
		t.Errorf("a limit of exactly the body's size refused it: %v", err)
	}
	if _, err := Inflate(body, int64(len(raw))-1); !errors.Is(err, ErrCorrupt) {
		t.Errorf("one byte over the limit: %v, want ErrCorrupt", err)
	}
	if _, err := Inflate([]byte("not deflate"), 1<<20); !errors.Is(err, ErrCorrupt) {
		t.Errorf("garbage: %v, want ErrCorrupt", err)
	}
}

func TestDecodeChecksLiteralCountFirst(t *testing.T) {
	body, flag, err := Encode([]int32{1, 2, 3}, []float64{4, 5})
	if err == nil && flag == 1 {
		body, err = Inflate(body, 1<<10) // the truncations below are of the plain body
	}
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Decode[float64](body[:len(body)-1], 0, 0, 0); !errors.Is(err, ErrCorrupt) {
		t.Errorf("a literal short by one byte: %v, want ErrCorrupt", err)
	}
	if _, _, _, err := Decode[float64](body[:len(body)-17], 0, 0, 0); !errors.Is(err, ErrCorrupt) {
		t.Errorf("no literal count: %v, want ErrCorrupt", err)
	}
	// The same bytes hold four float32 literals' worth of data for a count
	// of two, so the narrower reading is fine and the wider one is not.
	if _, _, lits, err := Decode[float32](body, 0, 0, 0); err != nil || len(lits) != 2 {
		t.Errorf("float32 reading: %d literals, %v", len(lits), err)
	}
}

// A field of 2^32 or more values sealed whole would store its counts
// wrapped — an archive that reads back as some other, shorter stream — so
// the count is refused instead.
func TestAppendCountRefusesWrap(t *testing.T) {
	got, err := appendCount(nil, huffman.MaxSymbols, "literals")
	if err != nil || len(got) != 4 {
		t.Fatalf("the largest count: % x, %v", got, err)
	}
	if _, err := appendCount(nil, huffman.MaxSymbols+1, "literals"); err == nil {
		t.Error("a count of 2^32 was written; it reads back as 0")
	}
}
