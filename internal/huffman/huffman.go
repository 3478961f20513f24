// Package huffman implements a canonical Huffman coder over 32-bit integer
// symbols. It is the entropy-coding stage (stage 3) of the SZ-like
// compressor and the back end of the MGARD-like compressor, which both reach
// it through internal/codestream: both produce streams of quantization codes
// whose distribution is heavily skewed toward a small number of values near
// zero, which is exactly the regime where Huffman coding shines.
//
// Encode counts symbols in a dense array over the range the stream occupies
// within ±denseReach of zero. Anything beyond — the codecs' marker for a
// value stored verbatim, 1<<30, and whatever else a caller passes — is
// counted in a short outlier list, sorted once. The tree comes from a typed
// min-heap ordered by (frequency, creation order), a strict total order, so
// the tree does not depend on how the heap breaks ties. Each symbol's
// MSB-first canonical code is kept bit-reversed, so one shift into a 64-bit
// accumulator puts it in the LSB-first bit stream. Decode resolves every
// code of up to tableBits bits with one lookup in a table whose slots hold
// the symbol itself; a longer code falls back to the canonical walk, one bit
// at a time. On a long stream of short codes (at least quadMinCodes codes,
// at most quadMaxBits bits a code on average, both read off the container's
// header) it first builds a second table whose slots hold up to four codes,
// and a step resolves all the codes a slot holds at once.
//
// The encoded container is self-describing: it stores the symbol table
// (symbol values and code lengths), the number of encoded symbols, and the
// bit stream, so Decode needs no side information.
package huffman

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"fraz/internal/pool"
)

// maxCodeLen is the maximum admissible code length. With canonical coding and
// realistic alphabet sizes (< 2^20 distinct symbols) this is never exceeded;
// it exists to bound the decoder tables.
const maxCodeLen = 58

// MaxSymbols is the longest symbol stream a container can hold: the count is
// stored in 32 bits.
const MaxSymbols = 1<<32 - 1

// denseReach bounds the symbols Encode counts in its dense array, those in
// [-denseReach, denseReach): the codes of a quantizer with up to 2^18
// intervals. sz and mgard use 2^16.
const denseReach = 1 << 17

// tableBits is the width of Decode's lookup table: codes up to this long
// decode in one step. On skewed code streams nearly every symbol is one.
const tableBits = 11

// MaxEncodedLen bounds the size of the container Encode produces for count
// symbols of which at most distinct differ: the two counts, one table entry
// per distinct symbol, and no code longer than maxCodeLen bits.
func MaxEncodedLen(count, distinct int64) int64 {
	return 8 + 5*min(count, distinct) + (count*maxCodeLen+7)/8
}

// ErrCorrupt is returned when a Huffman container fails to parse.
var ErrCorrupt = errors.New("huffman: corrupt stream")

// CheckCount fails when n values are too many for a 32-bit count field: a
// wrapped count would describe a stream no decoder reads back.
func CheckCount(n int, what string) error {
	if uint64(n) > MaxSymbols {
		return fmt.Errorf("%d %s do not fit a 32-bit count", n, what)
	}
	return nil
}

// nodeHeap is a binary min-heap of tree node indices ordered by (frequency,
// index). A node's index is its creation order — leaves in symbol order,
// then each merge — so the order is strict and total, and the tree built
// from it is the same whatever heap implementation pops the minimum.
type nodeHeap struct {
	items []int32
	freq  []uint64
}

func (h *nodeHeap) less(a, b int32) bool {
	return h.freq[a] < h.freq[b] || h.freq[a] == h.freq[b] && a < b
}

func (h *nodeHeap) down(i int) {
	for {
		m := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(h.items) && h.less(h.items[c], h.items[m]) {
				m = c
			}
		}
		if m == i {
			return
		}
		h.items[i], h.items[m] = h.items[m], h.items[i]
		i = m
	}
}

func (h *nodeHeap) pop() int32 {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	h.down(0)
	return top
}

func (h *nodeHeap) push(x int32) {
	h.items = append(h.items, x)
	for i := len(h.items) - 1; i > 0; {
		p := (i - 1) / 2
		if !h.less(h.items[i], h.items[p]) {
			return
		}
		h.items[i], h.items[p] = h.items[p], h.items[i]
		i = p
	}
}

// codeLengths returns the Huffman code length of each symbol, given the
// symbols' frequencies in symbol order. A lone symbol gets length 1.
func codeLengths(freqs []uint64) ([]uint8, error) {
	n := len(freqs)
	lengths := make([]uint8, n)
	if n == 1 {
		lengths[0] = 1
	}
	if n < 2 {
		return lengths, nil
	}
	h := nodeHeap{items: make([]int32, n, 2*n), freq: make([]uint64, n, 2*n-1)}
	copy(h.freq, freqs)
	for i := range h.items {
		h.items[i] = int32(i)
	}
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	parent := make([]int32, 2*n-1)
	for len(h.items) > 1 {
		a, b := h.pop(), h.pop()
		node := int32(len(h.freq))
		h.freq = append(h.freq, h.freq[a]+h.freq[b])
		parent[a], parent[b] = node, node
		h.push(node)
	}
	// A parent is created after its children, so one pass from the root
	// down gives every node its depth.
	depth := make([]int, 2*n-1)
	for i := 2*n - 3; i >= 0; i-- {
		depth[i] = depth[parent[i]] + 1
		if i < n {
			if depth[i] > maxCodeLen {
				return nil, fmt.Errorf("huffman: code length %d exceeds limit %d", depth[i], maxCodeLen)
			}
			lengths[i] = uint8(depth[i])
		}
	}
	return lengths, nil
}

// canonicalOrder returns the indices of lengths sorted by (length, index):
// the canonical order, when the index order is the symbol order.
func canonicalOrder(lengths []uint8) []int32 {
	var start [maxCodeLen + 2]int
	for _, l := range lengths {
		start[l+1]++
	}
	for l := 1; l < len(start); l++ {
		start[l] += start[l-1]
	}
	order := make([]int32, len(lengths))
	for i, l := range lengths {
		order[start[l]] = int32(i)
		start[l]++
	}
	return order
}

// reversed returns the low n bits of code in reverse order: an MSB-first
// code as the LSB-first bit stream holds it.
func reversed(code uint64, n uint8) uint64 {
	return bits.Reverse64(code) >> (64 - n)
}

// Encode's packed codes hold the reversed code in the low codeShift bits and
// its length above them.
const codeShift = maxCodeLen

// Encode compresses the symbol stream into a self-describing byte container.
func Encode(data []int32) ([]byte, error) {
	if err := CheckCount(len(data), "symbols"); err != nil {
		return nil, fmt.Errorf("huffman: %w", err)
	}
	// The dense range, and how many symbols fall outside it.
	lo, hi := int32(denseReach), int32(-denseReach)
	outliers := 0
	for _, s := range data {
		if s < -denseReach || s >= denseReach {
			outliers++
			continue
		}
		lo, hi = min(lo, s), max(hi, s)
	}
	var dense []uint64 // counts, then packed codes, indexed by symbol−lo
	if lo <= hi {
		dense = pool.Get[uint64](int(hi-lo) + 1)
		defer pool.Put(dense)
		clear(dense)
	}
	far := pool.Get[int32](outliers)
	defer pool.Put(far)
	nfar := 0
	for _, s := range data {
		if s < -denseReach || s >= denseReach {
			far[nfar] = s
			nfar++
			continue
		}
		dense[s-lo]++
	}
	slices.Sort(far)

	// The distinct symbols in ascending order and their frequencies: the far
	// ones below the dense range, the dense ones, the far ones above it.
	var farSyms []int32
	var farFreqs []uint64
	for i := 0; i < len(far); {
		j := i + 1
		for j < len(far) && far[j] == far[i] {
			j++
		}
		farSyms = append(farSyms, far[i])
		farFreqs = append(farFreqs, uint64(j-i))
		i = j
	}
	split, _ := slices.BinarySearch(farSyms, 0)
	symbols := append([]int32(nil), farSyms[:split]...)
	freqs := append([]uint64(nil), farFreqs[:split]...)
	for i, c := range dense {
		if c > 0 {
			symbols = append(symbols, lo+int32(i))
			freqs = append(freqs, c)
		}
	}
	symbols = append(symbols, farSyms[split:]...)
	freqs = append(freqs, farFreqs[split:]...)

	lengths, err := codeLengths(freqs)
	if err != nil {
		return nil, err
	}
	order := canonicalOrder(lengths)

	// Header: numSymbols(u32), numEntries(u32), then per entry in canonical
	// order symbol(i32) + length(u8); then the bit stream, whose exact size
	// the frequencies give.
	var nbits uint64
	for i, f := range freqs {
		nbits += f * uint64(lengths[i])
	}
	out := make([]byte, 0, 8+5*len(order)+int((nbits+7)/8))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(data)))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(order)))
	farCodes := make([]uint64, len(farSyms))
	var code uint64
	for k, i := range order {
		l := lengths[i]
		if k > 0 {
			code = (code + 1) << (l - lengths[order[k-1]])
		}
		out = binary.LittleEndian.AppendUint32(out, uint32(symbols[i]))
		out = append(out, l)
		c := reversed(code, l) | uint64(l)<<codeShift
		if s := symbols[i]; s >= -denseReach && s < denseReach {
			dense[s-lo] = c
		} else {
			j, _ := slices.BinarySearch(farSyms, s)
			farCodes[j] = c
		}
	}

	// The bit stream follows the header in out, in bitstream.Writer's
	// layout: LSB first, a 64-bit accumulator appended whole when it fills,
	// its last bits a byte at a time. The accumulator is kept here, not in
	// a Writer, so the loop makes no call per symbol. A code is at most
	// maxCodeLen < 64 bits, so a full accumulator held at least
	// 64 − maxCodeLen bits before the code that filled it.
	var acc uint64 // pending bits, the oldest in bit 0
	var have uint  // how many
	for _, s := range data {
		var c uint64
		if s >= -denseReach && s < denseReach {
			c = dense[s-lo]
		} else {
			i, _ := slices.BinarySearch(farSyms, s)
			c = farCodes[i]
		}
		n, v := uint(c>>codeShift), c&(1<<codeShift-1)
		acc |= v << have
		if have += n; have >= 64 {
			out = binary.LittleEndian.AppendUint64(out, acc)
			have -= 64
			acc = v >> (n - have) // the bits of v that did not fit
		}
	}
	for ; have > 0; have -= min(have, 8) {
		out = append(out, byte(acc))
		acc >>= 8
	}
	return out, nil
}

// slot is one entry of Decode's lookup table: the symbol whose code the
// table index starts with, and that code's length, 0 when no code of at
// most tableBits bits is a prefix of the index.
type slot struct {
	sym int32
	n   uint8
}

// canonical holds the canonical code in the form the bit-at-a-time walk
// reads it: per length, the first code, how many codes have it, and where
// their symbols start in syms, which is in canonical order.
type canonical struct {
	first [maxCodeLen + 1]uint64
	count [maxCodeLen + 1]int
	index [maxCodeLen + 1]int
	syms  []int32
}

// walk decodes the code that starts at bit pos of p one bit at a time. It
// reports false when no code matches within maxCodeLen bits or p ends first.
func (c *canonical) walk(p []byte, pos int) (sym int32, n int, ok bool) {
	var code uint64
	for l := 1; l <= maxCodeLen && pos+l <= 8*len(p); l++ {
		b := pos + l - 1
		code = code<<1 | uint64(p[b>>3]>>(b&7)&1)
		if off := code - c.first[l]; off < uint64(c.count[l]) {
			return c.syms[c.index[l]+int(off)], l, true
		}
	}
	return 0, 0, false
}

// Decode reverses Encode, returning the original symbol stream. A table
// whose code lengths over-subscribe the code space (the Kraft sum exceeds
// one) describes no prefix code; no encoder writes one, and Decode refuses
// it with ErrCorrupt.
//
// A stream of at least quadMinCodes codes whose payload averages at most
// quadMaxBits bits a code decodes up to four codes a lookup (decodeQuads);
// any other stream, and every code the four-code step does not take, goes
// one code a lookup (decode). Both read the same values and return the same
// verdicts on every input.
func Decode(buf []byte) ([]int32, error) {
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
	// Every symbol costs at least one bit, so the count is checked against
	// the bits that follow the table before it sizes the output.
	if numEntries == 0 || count > 8*(len(buf)-pos-5*numEntries) {
		return nil, ErrCorrupt
	}
	type entry struct {
		sym int32
		n   uint8
	}
	entries := make([]entry, numEntries)
	for i := range entries {
		e := entry{int32(binary.LittleEndian.Uint32(buf[pos:])), buf[pos+4]}
		pos += 5
		if e.n == 0 || e.n > maxCodeLen {
			return nil, ErrCorrupt
		}
		entries[i] = e
	}
	// Encode writes the table in canonical order; anything else is sorted.
	canonicalCmp := func(a, b entry) int {
		if a.n != b.n {
			return cmp.Compare(a.n, b.n)
		}
		return cmp.Compare(a.sym, b.sym)
	}
	if !slices.IsSortedFunc(entries, canonicalCmp) {
		slices.SortFunc(entries, canonicalCmp)
	}

	c := canonical{syms: make([]int32, numEntries)}
	for i, e := range entries {
		c.count[e.n]++
		c.syms[i] = e.sym
	}
	var code uint64
	idx := 0
	for l := 1; l <= maxCodeLen; l++ {
		c.first[l] = code
		c.index[l] = idx
		code += uint64(c.count[l])
		idx += c.count[l]
		if code > 1<<l {
			return nil, ErrCorrupt // over-subscribed
		}
		code <<= 1
	}
	var table [1 << tableBits]slot
	for i, e := range entries {
		if e.n > tableBits {
			break // canonical order: every later code is longer too
		}
		r := reversed(c.first[e.n]+uint64(i-c.index[e.n]), e.n)
		for j := r; j < 1<<tableBits; j += 1 << e.n {
			table[j] = slot{e.sym, e.n}
		}
	}

	p := buf[pos:]
	out := make([]int32, count)
	var err error
	if count >= quadMinCodes && 8*len(p) <= quadMaxBits*count {
		err = decodeQuads(out, p, &table, &c)
	} else {
		_, err = decode(out, p, 0, &table, &c)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// quadMinCodes and quadMaxBits decide when Decode builds its four-code
// table: on at least quadMinCodes codes whose payload averages at most
// quadMaxBits bits a code. Building it costs about as much as decoding two
// thousand codes one a lookup (about 18 µs on a 2 GHz Xeon), and the longer
// the codes, the fewer a slot holds. Measured on that machine against the
// one-code decode, the four-code table broke even at about 4,000 codes of
// 1.3 bits, 9,000 codes of 3.5 bits and 12,000 codes of 5 bits; at 65,536
// codes it ran 2.1×, 1.6× and 1.2× as fast.
const (
	quadMinCodes = 4 << tableBits
	quadMaxBits  = 4
)

// quad is one entry of the four-code table: the codes that the table index
// holds completely, decoded greedily from its lowest bit, at most four of
// them, how many, and their total length. n is noQuad when the index holds
// no whole code.
type quad struct {
	sym [4]int32
	n   uint8
	k   uint8
}

// noQuad marks a quad that holds no code: it exceeds any count of loaded
// bits, so the four-code step never takes it.
const noQuad = 0xff

// decodeQuads builds the four-code table from table and decodes through
// it. The table lives in this frame, not Decode's, so a stream that does
// not use it does not pay to clear it.
func decodeQuads(out []int32, p []byte, table *[1 << tableBits]slot, c *canonical) error {
	var quads [1 << tableBits]quad
	// The codes index i holds are its first code, of n bits, then the codes
	// of index i>>n that end within tableBits−n bits, built already since
	// i>>n < i. Index 0 is its own tail, so it is built four times, a code
	// each time. ends[i] holds where quads[i]'s first three codes end, none
	// past its last; a fourth code's end is never read.
	const none = tableBits + 1
	var ends [1 << tableBits][3]uint8
	ends[0] = [3]uint8{none, none, none}
	for j := -3; j < 1<<tableBits; j++ {
		i := max(j, 0)
		e, q := table[i], &quads[i]
		if e.n == 0 {
			q.n, ends[i] = noQuad, [3]uint8{none, none, none}
			continue
		}
		t, te := &quads[i>>e.n], &ends[i>>e.n]
		w := tableBits - e.n
		e0, e1, e2 := te[0], te[1], te[2]
		s0, s1, s2 := t.sym[0], t.sym[1], t.sym[2]
		k, n := uint8(1), e.n
		if e0 <= w {
			k, n = 2, e.n+e0
		}
		if e1 <= w {
			k, n = 3, e.n+e1
		}
		if e2 <= w {
			k, n = 4, e.n+e2
		}
		q.sym = [4]int32{e.sym, s0, s1, s2}
		q.n, q.k = n, k
		ends[i] = [3]uint8{e.n, min(e.n+e0, none), min(e.n+e1, none)}
	}
	// acc, have and next are decode's, over the same p.
	var acc uint64
	var have uint
	next := 0
	for i := 0; i < len(out); {
		// Four symbols are stored at once, so the four-code step stops while
		// four slots of out remain.
		for i < len(out)-3 {
			if next+8 <= len(p) {
				acc |= binary.LittleEndian.Uint64(p[next:]) << have
				k := (63 - have) >> 3
				next += int(k)
				have += k << 3
			} else {
				for have <= 56 && next < len(p) {
					acc |= uint64(p[next]) << have
					next++
					have += 8
				}
			}
			q := &quads[acc&(1<<tableBits-1)]
			if uint(q.n) > have {
				break
			}
			*(*[4]int32)(out[i:]) = q.sym
			i += int(q.k)
			acc >>= q.n
			have -= uint(q.n)
		}
		// decode's one-code step takes what the four-code step did not: a
		// code longer than the table, one whose bits are not all loaded, or
		// the last three.
		n := 1
		if len(out)-i < 4 {
			n = len(out) - i
		}
		at, err := decode(out[i:i+n], p, 8*next-int(have), table, c)
		if err != nil {
			return err
		}
		i += n
		next, acc, have = load(p, at)
	}
	return nil
}

// load returns decode's bit state at bit at of p: the next byte to load,
// and the bits of the byte holding bit at from that bit on.
func load(p []byte, at int) (next int, acc uint64, have uint) {
	next = at >> 3
	if next < len(p) {
		return next + 1, uint64(p[next] >> (at & 7)), 8 - uint(at&7)
	}
	return next, 0, 0
}

// decode fills out with the codes that start at bit at of p, one code a
// step: through table, or canonical's walk for a code longer than
// tableBits. It returns the bit after the last code.
func decode(out []int32, p []byte, at int, table *[1 << tableBits]slot, c *canonical) (int, error) {
	// acc holds the next unread bits of p, the first in its lowest bit; have
	// of them are loaded, and next is the first byte not yet loaded. Bits of
	// acc above have are either zero or the true bits that follow.
	next, acc, have := load(p, at)
	for i := range out {
		if next+8 <= len(p) {
			acc |= binary.LittleEndian.Uint64(p[next:]) << have
			k := (63 - have) >> 3
			next += int(k)
			have += k << 3
		} else {
			for have <= 56 && next < len(p) {
				acc |= uint64(p[next]) << have
				next++
				have += 8
			}
		}
		if e := table[acc&(1<<tableBits-1)]; e.n != 0 {
			if uint(e.n) > have {
				return 0, ErrCorrupt // the code runs past the end of p
			}
			out[i] = e.sym
			acc >>= e.n
			have -= uint(e.n)
			continue
		}
		// A code longer than the table: walk it, then reload from the bit
		// after it.
		at := 8*next - int(have)
		sym, n, ok := c.walk(p, at)
		if !ok {
			return 0, ErrCorrupt
		}
		out[i] = sym
		next, acc, have = load(p, at+n)
	}
	return 8*next - int(have), nil
}
