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
// at a time.
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

	// acc holds the next unread bits of p, the first in its lowest bit; have
	// of them are loaded, and next is the first byte not yet loaded. Bits of
	// acc above have are either zero or the true bits that follow.
	p := buf[pos:]
	out := make([]int32, count)
	var acc uint64
	var have uint
	next := 0
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
				return nil, ErrCorrupt // the code runs past the end of p
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
			return nil, ErrCorrupt
		}
		out[i] = sym
		at += n
		next, acc, have = at>>3, 0, 0
		if next < len(p) {
			acc, have = uint64(p[next]>>(at&7)), 8-uint(at&7)
			next++
		}
	}
	return out, nil
}
