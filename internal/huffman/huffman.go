// Package huffman implements a canonical Huffman coder over 32-bit integer
// symbols. It is the entropy-coding stage (stage 3) of the SZ-like
// compressor and the back end of the MGARD-like compressor: both produce
// streams of quantization codes whose distribution is heavily skewed toward
// a small number of values, which is exactly the regime where Huffman coding
// shines.
//
// The encoded container is self-describing: it stores the symbol table
// (symbol values and code lengths), the number of encoded symbols, and the
// bit stream, so Decode needs no side information.
package huffman

import (
	"container/heap"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"fraz/internal/bitstream"
)

// maxCodeLen is the maximum admissible code length. With canonical coding and
// realistic alphabet sizes (< 2^20 distinct symbols) this is never exceeded;
// it exists to bound the decoder tables.
const maxCodeLen = 58

// MaxSymbols is the longest symbol stream a container can hold: the count is
// stored in 32 bits.
const MaxSymbols = 1<<32 - 1

// MaxEncodedLen bounds the size of the container Encode produces for count
// symbols of which at most distinct differ: the two counts, one table entry
// per distinct symbol, and no code longer than maxCodeLen bits.
func MaxEncodedLen(count, distinct int64) int64 {
	return 8 + 5*min(count, distinct) + (count*maxCodeLen+7)/8
}

// ErrCorrupt is returned when a Huffman container fails to parse.
var ErrCorrupt = errors.New("huffman: corrupt stream")

type node struct {
	freq        uint64
	symbol      int32
	left, right int // indices into node slice, -1 for leaves
	// order breaks frequency ties deterministically so that encoding is
	// reproducible across runs and platforms.
	order int
}

type nodeHeap struct {
	nodes []int
	pool  []node
}

func (h nodeHeap) Len() int { return len(h.nodes) }
func (h nodeHeap) Less(i, j int) bool {
	a, b := h.pool[h.nodes[i]], h.pool[h.nodes[j]]
	if a.freq != b.freq {
		return a.freq < b.freq
	}
	return a.order < b.order
}
func (h nodeHeap) Swap(i, j int)       { h.nodes[i], h.nodes[j] = h.nodes[j], h.nodes[i] }
func (h *nodeHeap) Push(x interface{}) { h.nodes = append(h.nodes, x.(int)) }
func (h *nodeHeap) Pop() interface{} {
	old := h.nodes
	n := len(old)
	x := old[n-1]
	h.nodes = old[:n-1]
	return x
}

// codeEntry is a canonical code assignment for one symbol.
type codeEntry struct {
	symbol int32
	length uint8
	code   uint64
}

// buildCodeLengths computes Huffman code lengths for each distinct symbol.
func buildCodeLengths(symbols []int32, freqs []uint64) []codeEntry {
	n := len(symbols)
	if n == 0 {
		return nil
	}
	if n == 1 {
		return []codeEntry{{symbol: symbols[0], length: 1}}
	}
	pool := make([]node, 0, 2*n)
	h := &nodeHeap{pool: nil}
	for i := 0; i < n; i++ {
		pool = append(pool, node{freq: freqs[i], symbol: symbols[i], left: -1, right: -1, order: i})
	}
	h.pool = pool
	h.nodes = make([]int, n)
	for i := range h.nodes {
		h.nodes[i] = i
	}
	heap.Init(h)
	order := n
	for h.Len() > 1 {
		a := heap.Pop(h).(int)
		b := heap.Pop(h).(int)
		h.pool = append(h.pool, node{
			freq:  h.pool[a].freq + h.pool[b].freq,
			left:  a,
			right: b,
			order: order,
		})
		order++
		pool = h.pool
		heap.Push(h, len(h.pool)-1)
	}
	root := h.nodes[0]
	pool = h.pool

	// Depth-first traversal to find each leaf's depth.
	entries := make([]codeEntry, 0, n)
	type frame struct {
		idx   int
		depth uint8
	}
	stack := []frame{{root, 0}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := pool[f.idx]
		if nd.left < 0 && nd.right < 0 {
			d := f.depth
			if d == 0 {
				d = 1
			}
			entries = append(entries, codeEntry{symbol: nd.symbol, length: d})
			continue
		}
		stack = append(stack, frame{nd.left, f.depth + 1}, frame{nd.right, f.depth + 1})
	}
	return entries
}

// assignCanonical sorts entries by (length, symbol) and assigns canonical
// codes. The same procedure is used by the decoder to reconstruct codes from
// lengths alone.
func assignCanonical(entries []codeEntry) {
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

// Encode compresses the symbol stream into a self-describing byte container.
func Encode(data []int32) ([]byte, error) {
	// Frequency count.
	freqMap := make(map[int32]uint64)
	for _, s := range data {
		freqMap[s]++
	}
	symbols := make([]int32, 0, len(freqMap))
	for s := range freqMap {
		symbols = append(symbols, s)
	}
	sort.Slice(symbols, func(i, j int) bool { return symbols[i] < symbols[j] })
	freqs := make([]uint64, len(symbols))
	for i, s := range symbols {
		freqs[i] = freqMap[s]
	}

	entries := buildCodeLengths(symbols, freqs)
	assignCanonical(entries)
	for _, e := range entries {
		if e.length > maxCodeLen {
			return nil, fmt.Errorf("huffman: code length %d exceeds limit %d", e.length, maxCodeLen)
		}
	}
	codeOf := make(map[int32]codeEntry, len(entries))
	for _, e := range entries {
		codeOf[e.symbol] = e
	}

	// Header: numSymbols(u32), numEntries(u32), then per entry symbol(i32) +
	// length(u8); then the bit stream.
	header := make([]byte, 0, 8+len(entries)*5)
	var tmp [8]byte
	binary.LittleEndian.PutUint32(tmp[:4], uint32(len(data)))
	header = append(header, tmp[:4]...)
	binary.LittleEndian.PutUint32(tmp[:4], uint32(len(entries)))
	header = append(header, tmp[:4]...)
	for _, e := range entries {
		binary.LittleEndian.PutUint32(tmp[:4], uint32(e.symbol))
		header = append(header, tmp[:4]...)
		header = append(header, e.length)
	}

	w := bitstream.NewWriter(len(data) / 2)
	for _, s := range data {
		e := codeOf[s]
		// Canonical codes are defined MSB-first; emit bits from the most
		// significant code bit down so the decoder can walk prefix-first.
		for b := int(e.length) - 1; b >= 0; b-- {
			w.WriteBit(uint(e.code>>uint(b)) & 1)
		}
	}
	payload := w.Bytes()
	out := make([]byte, 0, len(header)+len(payload))
	out = append(out, header...)
	out = append(out, payload...)
	return out, nil
}

// Decode reverses Encode, returning the original symbol stream.
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
	entries := make([]codeEntry, numEntries)
	for i := 0; i < numEntries; i++ {
		sym := int32(binary.LittleEndian.Uint32(buf[pos : pos+4]))
		length := buf[pos+4]
		pos += 5
		if length == 0 || length > maxCodeLen {
			return nil, ErrCorrupt
		}
		entries[i] = codeEntry{symbol: sym, length: length}
	}
	assignCanonical(entries)

	// Canonical decoding tables indexed by code length: the first code of
	// each length and the index of the first symbol of that length.
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
