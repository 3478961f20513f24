package huffman

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, data []int32) {
	t.Helper()
	enc, err := Encode(data)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	dec, err := Decode(enc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(dec) != len(data) {
		t.Fatalf("length mismatch: got %d want %d", len(dec), len(data))
	}
	for i := range data {
		if dec[i] != data[i] {
			t.Fatalf("mismatch at %d: got %d want %d", i, dec[i], data[i])
		}
	}
}

func TestRoundTripEmpty(t *testing.T) {
	roundTrip(t, []int32{})
}

func TestRoundTripSingleSymbol(t *testing.T) {
	roundTrip(t, []int32{42})
	roundTrip(t, []int32{7, 7, 7, 7, 7, 7})
}

func TestRoundTripTwoSymbols(t *testing.T) {
	roundTrip(t, []int32{1, 2, 1, 1, 2, 1, 1, 1})
}

func TestRoundTripNegativeSymbols(t *testing.T) {
	roundTrip(t, []int32{-5, 3, -5, -5, 0, 3, -1000000, 3})
}

func TestRoundTripSkewedDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := make([]int32, 20000)
	for i := range data {
		// Mostly zeros with occasional larger codes, mimicking SZ
		// quantization output on smooth data.
		r := rng.Float64()
		switch {
		case r < 0.8:
			data[i] = 0
		case r < 0.95:
			data[i] = int32(rng.Intn(8) - 4)
		default:
			data[i] = int32(rng.Intn(1000) - 500)
		}
	}
	roundTrip(t, data)
}

func TestRoundTripUniformLargeAlphabet(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	data := make([]int32, 5000)
	for i := range data {
		data[i] = int32(rng.Intn(4096))
	}
	roundTrip(t, data)
}

func TestCompressionBeatsRawOnSkewedData(t *testing.T) {
	data := make([]int32, 10000)
	for i := range data {
		data[i] = int32(i % 3) // extremely low entropy
	}
	enc, err := Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	raw := len(data) * 4
	if len(enc) >= raw/2 {
		t.Errorf("expected at least 2x reduction on low-entropy data: %d vs %d raw", len(enc), raw)
	}
}

func TestDecodeCorruptHeader(t *testing.T) {
	if _, err := Decode([]byte{1, 2, 3}); err == nil {
		t.Errorf("short buffer should fail")
	}
	// count > 0 but zero table entries
	buf := []byte{5, 0, 0, 0, 0, 0, 0, 0}
	if _, err := Decode(buf); err == nil {
		t.Errorf("zero-entry table with nonzero count should fail")
	}
}

func TestDecodeTruncatedPayload(t *testing.T) {
	data := []int32{1, 2, 3, 4, 5, 6, 7, 8, 1, 1, 1, 1}
	enc, err := Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(enc[:len(enc)-2]); err == nil {
		t.Errorf("truncated payload should fail")
	}
}

func TestDecodeCorruptCodeLength(t *testing.T) {
	data := []int32{1, 2, 1}
	enc, err := Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the first table entry's code length byte (offset 8+4).
	enc[12] = 200
	if _, err := Decode(enc); err == nil {
		t.Errorf("invalid code length should fail")
	}
}

func TestPropertyRoundTrip(t *testing.T) {
	f := func(raw []int16, skew uint8) bool {
		data := make([]int32, len(raw))
		mod := int32(skew%16) + 1
		for i, v := range raw {
			data[i] = int32(v) % mod
		}
		enc, err := Encode(data)
		if err != nil {
			return false
		}
		dec, err := Decode(enc)
		if err != nil {
			return false
		}
		if len(dec) != len(data) {
			return false
		}
		for i := range data {
			if dec[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncodeSkewed(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	data := make([]int32, 100000)
	for i := range data {
		if rng.Float64() < 0.9 {
			data[i] = 0
		} else {
			data[i] = int32(rng.Intn(256) - 128)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeSkewed(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	data := make([]int32, 100000)
	for i := range data {
		if rng.Float64() < 0.9 {
			data[i] = 0
		} else {
			data[i] = int32(rng.Intn(256) - 128)
		}
	}
	enc, err := Encode(data)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}
