package huffman

import (
	"container/heap"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"fraz/internal/bitstream"
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

// szLikeCodes draws n quantisation codes the way sz produces them on a
// smooth field at a moderate bound: a two-sided geometric spread around zero
// wide enough that the common codes are several bits long and the rare ones
// longer than Decode's table, plus a few in a hundred values stored verbatim
// (the 1<<30 marker).
func szLikeCodes(n int, seed int64) []int32 {
	rng := rand.New(rand.NewSource(seed))
	data := make([]int32, n)
	for i := range data {
		if rng.Float64() < 0.02 {
			data[i] = 1 << 30
			continue
		}
		mag := int32(rng.ExpFloat64() * 12)
		if rng.Intn(2) == 0 {
			mag = -mag
		}
		data[i] = mag
	}
	return data
}

func BenchmarkEncodeSkewed(b *testing.B) {
	data := szLikeCodes(100000, 3)
	b.SetBytes(int64(4 * len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(data); err != nil {
			b.Fatal(err)
		}
	}
}

// peakedCodes draws n codes from distinct symbols centred on zero: zero
// with weight peak, ±m with weight m^-tail. A tall peak and a steep tail
// give the streams sz writes on smooth fields (a few symbols, about a bit
// and a half a code); a low peak and a heavy tail give mgard's (hundreds of
// symbols, several bits a code).
func peakedCodes(n, distinct int, peak, tail float64, seed int64) []int32 {
	half := distinct / 2
	cum := make([]float64, 2*half+1)
	total := 0.0
	for k := -half; k <= half; k++ {
		w := peak
		if k != 0 {
			w = math.Pow(math.Abs(float64(k)), -tail)
		}
		total += w
		cum[k+half] = total
	}
	rng := rand.New(rand.NewSource(seed))
	data := make([]int32, n)
	for i := range data {
		k, _ := slices.BinarySearch(cum, rng.Float64()*total)
		data[i] = int32(min(k, 2*half) - half)
	}
	return data
}

// decodeStreams are the streams the decode benchmarks and the allocation
// pin run on: sz- and mgard-shaped streams the size of a 64³ field, and
// szLikeCodes (about six bits a code) from a few hundred codes up.
func decodeStreams() []struct {
	name string
	data []int32
} {
	const field = 64 * 64 * 64
	return []struct {
		name string
		data []int32
	}{
		{"sz/5sym", peakedCodes(field, 5, 12, 2.5, 1)},
		{"sz/7sym", peakedCodes(field, 7, 4, 2.5, 2)},
		{"mgard/35sym", peakedCodes(field, 35, 24, 2.5, 3)},
		{"mgard/225sym", peakedCodes(field, 225, 1, 1.9, 4)},
		{"szlike/300", szLikeCodes(300, 3)},
		{"szlike/1000", szLikeCodes(1000, 3)},
		{"szlike/13824", szLikeCodes(13824, 3)},
		{"szlike/262144", szLikeCodes(262144, 3)},
	}
}

func BenchmarkDecode(b *testing.B) {
	for _, s := range decodeStreams() {
		enc, err := Encode(s.data)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(s.name, func(b *testing.B) {
			b.SetBytes(int64(4 * len(s.data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Decode(enc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// The reference coder: the map-counting, container/heap, bit-at-a-time
// implementation Encode and Decode replaced. The tests below hold the
// replacement to its bytes and to its verdicts.

type refNode struct {
	freq        uint64
	symbol      int32
	left, right int // indices into node slice, -1 for leaves
	order       int
}

type refHeap struct {
	nodes []int
	pool  []refNode
}

func (h refHeap) Len() int { return len(h.nodes) }
func (h refHeap) Less(i, j int) bool {
	a, b := h.pool[h.nodes[i]], h.pool[h.nodes[j]]
	if a.freq != b.freq {
		return a.freq < b.freq
	}
	return a.order < b.order
}
func (h refHeap) Swap(i, j int)       { h.nodes[i], h.nodes[j] = h.nodes[j], h.nodes[i] }
func (h *refHeap) Push(x interface{}) { h.nodes = append(h.nodes, x.(int)) }
func (h *refHeap) Pop() interface{} {
	old := h.nodes
	n := len(old)
	x := old[n-1]
	h.nodes = old[:n-1]
	return x
}

type refEntry struct {
	symbol int32
	length uint8
	code   uint64
}

func refCodeLengths(symbols []int32, freqs []uint64) []refEntry {
	n := len(symbols)
	if n == 0 {
		return nil
	}
	if n == 1 {
		return []refEntry{{symbol: symbols[0], length: 1}}
	}
	h := &refHeap{}
	for i := 0; i < n; i++ {
		h.pool = append(h.pool, refNode{freq: freqs[i], symbol: symbols[i], left: -1, right: -1, order: i})
		h.nodes = append(h.nodes, i)
	}
	heap.Init(h)
	order := n
	for h.Len() > 1 {
		a := heap.Pop(h).(int)
		b := heap.Pop(h).(int)
		h.pool = append(h.pool, refNode{freq: h.pool[a].freq + h.pool[b].freq, left: a, right: b, order: order})
		order++
		heap.Push(h, len(h.pool)-1)
	}
	var entries []refEntry
	type frame struct {
		idx   int
		depth uint8
	}
	stack := []frame{{h.nodes[0], 0}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := h.pool[f.idx]
		if nd.left < 0 {
			entries = append(entries, refEntry{symbol: nd.symbol, length: max(f.depth, 1)})
			continue
		}
		stack = append(stack, frame{nd.left, f.depth + 1}, frame{nd.right, f.depth + 1})
	}
	return entries
}

func refAssignCanonical(entries []refEntry) {
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].length != entries[j].length {
			return entries[i].length < entries[j].length
		}
		return entries[i].symbol < entries[j].symbol
	})
	var code uint64
	var prevLen uint8
	for i := range entries {
		if i > 0 {
			code++
			code <<= entries[i].length - prevLen
		}
		entries[i].code = code
		prevLen = entries[i].length
	}
}

// refBits writes each symbol's code MSB-first, one bit per call.
func refBits(w *bitstream.Writer, data []int32, codeOf map[int32]refEntry) {
	for _, s := range data {
		e := codeOf[s]
		for b := int(e.length) - 1; b >= 0; b-- {
			w.WriteBit(uint(e.code>>uint(b)) & 1)
		}
	}
}

func refEncode(data []int32) []byte {
	freqMap := make(map[int32]uint64)
	for _, s := range data {
		freqMap[s]++
	}
	symbols := make([]int32, 0, len(freqMap))
	for s := range freqMap {
		symbols = append(symbols, s)
	}
	slices.Sort(symbols)
	freqs := make([]uint64, len(symbols))
	for i, s := range symbols {
		freqs[i] = freqMap[s]
	}
	entries := refCodeLengths(symbols, freqs)
	refAssignCanonical(entries)
	codeOf := make(map[int32]refEntry, len(entries))
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(data)))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(entries)))
	for _, e := range entries {
		codeOf[e.symbol] = e
		out = binary.LittleEndian.AppendUint32(out, uint32(e.symbol))
		out = append(out, e.length)
	}
	w := bitstream.NewWriter(0)
	refBits(w, data, codeOf)
	return append(out, w.Bytes()...)
}

func refDecode(buf []byte) ([]int32, error) {
	if len(buf) < 8 {
		return nil, ErrCorrupt
	}
	count := int(binary.LittleEndian.Uint32(buf[0:4]))
	numEntries := int(binary.LittleEndian.Uint32(buf[4:8]))
	pos := 8
	if numEntries < 0 || pos+numEntries*5 > len(buf) {
		return nil, ErrCorrupt
	}
	if count == 0 {
		return []int32{}, nil
	}
	if numEntries == 0 || count > 8*(len(buf)-pos-5*numEntries) {
		return nil, ErrCorrupt
	}
	entries := make([]refEntry, numEntries)
	for i := 0; i < numEntries; i++ {
		sym := int32(binary.LittleEndian.Uint32(buf[pos : pos+4]))
		length := buf[pos+4]
		pos += 5
		if length == 0 || length > maxCodeLen {
			return nil, ErrCorrupt
		}
		entries[i] = refEntry{symbol: sym, length: length}
	}
	refAssignCanonical(entries)
	firstCode := make([]uint64, maxCodeLen+2)
	firstIndex := make([]int, maxCodeLen+2)
	countsByLen := make([]int, maxCodeLen+2)
	for _, e := range entries {
		countsByLen[e.length]++
	}
	idx := 0
	var code uint64
	for l := 1; l <= maxCodeLen; l++ {
		firstCode[l] = code
		firstIndex[l] = idx
		code += uint64(countsByLen[l])
		idx += countsByLen[l]
		code <<= 1
	}
	r := bitstream.NewReader(buf[pos:])
	out := make([]int32, 0, count)
	for len(out) < count {
		var acc uint64
		var l uint8
		for {
			bit, err := r.ReadBit()
			if err != nil {
				return nil, ErrCorrupt
			}
			acc = acc<<1 | uint64(bit)
			l++
			if l > maxCodeLen {
				return nil, ErrCorrupt
			}
			if countsByLen[l] > 0 {
				offset := acc - firstCode[l]
				if acc >= firstCode[l] && offset < uint64(countsByLen[l]) {
					out = append(out, entries[firstIndex[l]+int(offset)].symbol)
					break
				}
			}
		}
	}
	return out, nil
}

// TestEncodeMatchesReference: Encode writes the reference's bytes on streams
// that reach every branch of its counting — dense symbols only, the verbatim
// marker, the int32 extremes, and symbols spread wider than the dense range
// on either side of it.
func TestEncodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	streams := map[string][]int32{
		"empty":       {},
		"one symbol":  {7, 7, 7},
		"extremes":    {math.MinInt32, math.MaxInt32, 1 << 30, 0, math.MinInt32, -1, 1 << 30, 1 << 30},
		"sz-like":     szLikeCodes(50000, 1),
		"range edges": {-denseReach - 1, -denseReach, denseReach - 1, denseReach, 0, 0, denseReach},
	}
	wide := make([]int32, 20000)
	full := make([]int32, 3000)
	mixed := make([]int32, 30000)
	for i := range wide {
		wide[i] = int32(rng.NormFloat64() * 4 * denseReach)
	}
	for i := range full {
		full[i] = int32(rng.Uint32())
	}
	for i := range mixed {
		switch rng.Intn(4) {
		case 0:
			mixed[i] = int32(rng.Uint32())
		case 1:
			mixed[i] = 1 << 30
		default:
			mixed[i] = int32(rng.Intn(64) - 32)
		}
	}
	streams["wider than dense"], streams["full int32"], streams["mixed"] = wide, full, mixed
	for name, data := range streams {
		got, err := Encode(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := refEncode(data); !slices.Equal(got, want) {
			t.Errorf("%s: %d bytes differ from the reference's %d", name, len(got), len(want))
		}
		dec, err := Decode(got)
		if err != nil || !slices.Equal(dec, data) {
			t.Errorf("%s: round trip: %v", name, err)
		}
	}
}

// forgeTable returns a Kraft-complete set of code lengths of at most
// maxCodeLen bits: leaves of a random binary tree, grown by splitting a leaf
// at a time. With skew the tree grows down one side, which reaches the
// longest codes.
func forgeTable(rng *rand.Rand, leaves int, skew bool) []uint8 {
	lengths := []uint8{1, 1}
	for len(lengths) < leaves {
		i := rng.Intn(len(lengths))
		if skew {
			i = len(lengths) - 1
		}
		if lengths[i] == maxCodeLen {
			break
		}
		lengths[i]++
		lengths = append(lengths, lengths[i])
	}
	return lengths
}

// forgeStream builds a container over the given code lengths, its table in
// shuffled order, holding count symbols drawn uniformly from the table (so
// the longest codes occur as often as the shortest) and written with the
// reference's canonical codes.
func forgeStream(rng *rand.Rand, lengths []uint8, count int) []byte {
	return forgeStreamOf(rng, lengths, count, func(entries []refEntry, _ int) refEntry {
		return entries[rng.Intn(len(entries))]
	})
}

// forgeStreamOf is forgeStream with pick choosing the i-th symbol among the
// entries, which are in canonical order.
func forgeStreamOf(rng *rand.Rand, lengths []uint8, count int, pick func(entries []refEntry, i int) refEntry) []byte {
	entries := make([]refEntry, len(lengths))
	for i, l := range lengths {
		entries[i] = refEntry{symbol: int32(rng.Uint32()), length: l}
	}
	rng.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
	out := binary.LittleEndian.AppendUint32(nil, uint32(count))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(entries)))
	for _, e := range entries {
		out = binary.LittleEndian.AppendUint32(out, uint32(e.symbol))
		out = append(out, e.length)
	}
	refAssignCanonical(entries)
	codeOf := make(map[int32]refEntry, len(entries))
	data := make([]int32, count)
	for i := range data {
		e := pick(entries, i)
		codeOf[e.symbol] = e
		data[i] = e.symbol
	}
	w := bitstream.NewWriter(0)
	refBits(w, data, codeOf)
	return append(out, w.Bytes()...)
}

// forgeSkewed forges count codes over a table of codes 1, 2, …, 19 bits
// long, drawing a code of l bits with probability 2^-l (about two bits a
// code, so Decode takes its four-code step), except at the positions in
// long, which hold the longest code.
func forgeSkewed(rng *rand.Rand, count int, long ...int) []byte {
	lengths := forgeTable(rng, 20, true)
	return forgeStreamOf(rng, lengths, count, func(entries []refEntry, i int) refEntry {
		if slices.Contains(long, i) {
			return entries[len(entries)-1]
		}
		k := 0
		for k < len(entries)-1 && rng.Intn(2) == 1 {
			k++
		}
		return entries[k]
	})
}

// sameDecode fails unless Decode and the reference agree on buf: the same
// values, or an error from both.
func sameDecode(t *testing.T, name string, buf []byte) {
	t.Helper()
	got, err := Decode(buf)
	want, refErr := refDecode(buf)
	switch {
	case (err == nil) != (refErr == nil):
		t.Fatalf("%s: Decode error %v, reference error %v", name, err, refErr)
	case err == nil && !slices.Equal(got, want):
		t.Fatalf("%s: Decode and the reference read different values", name)
	case err != nil && !errors.Is(err, ErrCorrupt):
		t.Fatalf("%s: %v, want ErrCorrupt", name, err)
	}
}

// TestDecodeMatchesReference: on forged Kraft-complete tables with codes up
// to maxCodeLen bits, on random bit payloads and on every truncation of a
// payload, Decode reads what the reference reads, or fails where it fails.
func TestDecodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		lengths := forgeTable(rng, 2+rng.Intn(300), trial%3 == 0)
		buf := forgeStream(rng, lengths, 1+rng.Intn(400))
		sameDecode(t, "forged", buf)
		for cut := 1; cut < 24 && cut < len(buf); cut++ {
			sameDecode(t, "truncated", buf[:len(buf)-cut])
		}
		// The same table over random bits: every bit string decodes under a
		// complete code until it runs out, so the count decides.
		head := 8 + 5*len(lengths)
		noise := append([]byte(nil), buf[:head]...)
		for i := 0; i < 64; i++ {
			noise = append(noise, byte(rng.Uint32()))
		}
		binary.LittleEndian.PutUint32(noise, uint32(1+rng.Intn(300)))
		sameDecode(t, "random bits", noise)
	}
	// An incomplete code (a lone symbol has code 0 and nothing starts with
	// a 1) fails on the first 1 bit in both.
	one, err := Encode([]int32{5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	sameDecode(t, "lone symbol", one)
	one[len(one)-1] = 0x02
	sameDecode(t, "lone symbol, a 1 bit", one)
}

// TestDecodeMatchesReferenceAtLength: on streams long enough for Decode's
// four-code table, with a code longer than tableBits at the start, in the
// middle and among the last four codes, and on every truncation of their
// last 16 bytes, Decode reads what the reference reads, or fails where it
// fails.
func TestDecodeMatchesReferenceAtLength(t *testing.T) {
	const count = 10000
	rng := rand.New(rand.NewSource(44))
	for name, long := range map[string][]int{
		"long code first":      {0},
		"long code midway":     {count / 2},
		"long code in last 4":  {count - 3},
		"long codes every way": {0, 1, count / 2, count - 4, count - 1},
	} {
		buf := forgeSkewed(rng, count, long...)
		if n := 8 * (len(buf) - 8 - 5*20); n > quadMaxBits*count {
			t.Fatalf("%s: %d bits for %d codes, too many for the four-code table", name, n, count)
		}
		sameDecode(t, name, buf)
		for cut := 1; cut <= 16; cut++ {
			sameDecode(t, fmt.Sprintf("%s, %d bytes cut", name, cut), buf[:len(buf)-cut])
		}
	}
}

// TestDecodeAllocations pins Decode's allocations on the benchmark streams:
// the table's entries, its symbols in canonical order, and the output. The
// four-code table lives on the stack.
func TestDecodeAllocations(t *testing.T) {
	for _, s := range decodeStreams() {
		enc, err := Encode(s.data)
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(20, func() { _, _ = Decode(enc) }); n != 3 {
			t.Errorf("%s: Decode made %v allocations, want 3", s.name, n)
		}
	}
}

// The reference accepts a table whose lengths over-subscribe the code space
// (three codes of one bit), decoding whatever its walk meets first; no
// encoder writes such a table, and Decode refuses it.
func TestDecodeRejectsOverSubscribedTable(t *testing.T) {
	buf := binary.LittleEndian.AppendUint32(nil, 4)
	buf = binary.LittleEndian.AppendUint32(buf, 3)
	for sym := int32(1); sym <= 3; sym++ {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(sym))
		buf = append(buf, 1)
	}
	buf = append(buf, 0x0a)
	if _, err := refDecode(buf); err != nil {
		t.Fatalf("the reference refused the table: %v", err)
	}
	if _, err := Decode(buf); !errors.Is(err, ErrCorrupt) {
		t.Errorf("over-subscribed table: %v, want ErrCorrupt", err)
	}
}

func TestCheckCount(t *testing.T) {
	if err := CheckCount(MaxSymbols, "symbols"); err != nil {
		t.Errorf("MaxSymbols: %v", err)
	}
	if err := CheckCount(MaxSymbols+1, "symbols"); err == nil {
		t.Error("MaxSymbols+1 symbols passed; a 32-bit count would wrap to 0")
	}
}

// overSubscribed reports whether buf declares symbols and a table that
// parses and whose code lengths over-subscribe the code space: the one
// verdict on which Decode and the reference differ
// (TestDecodeRejectsOverSubscribedTable). With no symbols both return an
// empty stream whatever the table.
func overSubscribed(buf []byte) bool {
	if len(buf) < 8 || binary.LittleEndian.Uint32(buf) == 0 {
		return false
	}
	n := int(binary.LittleEndian.Uint32(buf[4:8]))
	if n < 0 || 8+5*n > len(buf) {
		return false
	}
	var count [maxCodeLen + 1]uint64
	for i := 0; i < n; i++ {
		l := buf[8+5*i+4]
		if l == 0 || l > maxCodeLen {
			return false
		}
		count[l]++
	}
	var code uint64
	for l := 1; l <= maxCodeLen; l++ {
		if code += count[l]; code > 1<<l {
			return true
		}
		code <<= 1
	}
	return false
}

// FuzzDecode: on any input Decode reads what the reference reads, or fails
// with ErrCorrupt where it fails (or where the table over-subscribes the
// code space, which the reference accepts), and any symbol stream (the
// input read as int32s) decodes back from what Encode wrote for it.
func FuzzDecode(f *testing.F) {
	for _, data := range [][]int32{{}, {3}, {1, 2, 1, 1, 1 << 30}, szLikeCodes(300, 5)} {
		enc, err := Encode(data)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add(forgeStream(rand.New(rand.NewSource(1)), forgeTable(rand.New(rand.NewSource(2)), 64, true), 40))
	f.Fuzz(func(t *testing.T, buf []byte) {
		if _, err := Decode(buf); overSubscribed(buf) {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("over-subscribed table: %v, want ErrCorrupt", err)
			}
		} else {
			sameDecode(t, "fuzzed", buf)
		}
		data := make([]int32, len(buf)/4)
		for i := range data {
			data[i] = int32(binary.LittleEndian.Uint32(buf[4*i:]))
		}
		enc, err := Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := Decode(enc)
		if err != nil || !slices.Equal(dec, data) {
			t.Fatalf("%d symbols did not round-trip: %v", len(data), err)
		}
	})
}
