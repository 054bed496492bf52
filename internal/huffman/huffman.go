// Package huffman implements a canonical Huffman coder over 16-bit
// symbols. It is the entropy-coding stage of the SZ-model compressor
// (Solution A/B in the paper): quantization tokens produced by the
// linear-scaling quantizer are Huffman coded before the final lossless
// pass.
//
// The encoded stream is self-describing: a compact code-length table
// (canonical form) precedes the payload, so the decoder needs no side
// channel.
package huffman

import (
	"errors"
	"fmt"
	"sort"

	"qcsim/internal/bitio"
)

// MaxCodeLen is the deepest code the encoder will emit. Codes deeper than
// this are flattened by the package-private depth limiter; 32 is far deeper
// than any realistic quantization-token distribution requires.
const MaxCodeLen = 32

var (
	// ErrCorrupt is returned when a stream fails structural validation.
	ErrCorrupt = errors.New("huffman: corrupt stream")
)

type node struct {
	freq        uint64
	sym         uint16
	left, right int // indices into the node arena; -1 for leaves
}

// codeLengths derives Huffman code lengths from symbol frequencies using
// the standard two-queue construction over a heap-free sorted arena.
func codeLengths(freq map[uint16]uint64) map[uint16]uint8 {
	if len(freq) == 0 {
		return nil
	}
	if len(freq) == 1 {
		for s := range freq {
			return map[uint16]uint8{s: 1}
		}
	}
	arena := make([]node, 0, 2*len(freq))
	order := make([]int, 0, len(freq))
	for s, f := range freq {
		arena = append(arena, node{freq: f, sym: s, left: -1, right: -1})
	}
	// Sort leaves ascending by frequency then symbol for determinism.
	sort.Slice(arena, func(i, j int) bool {
		if arena[i].freq != arena[j].freq {
			return arena[i].freq < arena[j].freq
		}
		return arena[i].sym < arena[j].sym
	})
	for i := range arena {
		order = append(order, i)
	}
	// Two-queue merge: leaves in `order`, internal nodes appended to
	// `internal`, both sorted ascending, pop the two smallest overall.
	var internal []int
	pop := func() int {
		switch {
		case len(order) == 0:
			i := internal[0]
			internal = internal[1:]
			return i
		case len(internal) == 0:
			i := order[0]
			order = order[1:]
			return i
		case arena[order[0]].freq <= arena[internal[0]].freq:
			i := order[0]
			order = order[1:]
			return i
		default:
			i := internal[0]
			internal = internal[1:]
			return i
		}
	}
	for len(order)+len(internal) > 1 {
		a := pop()
		b := pop()
		arena = append(arena, node{freq: arena[a].freq + arena[b].freq, left: a, right: b})
		internal = append(internal, len(arena)-1)
	}
	root := pop()
	// Walk depths iteratively.
	lengths := make(map[uint16]uint8, len(freq))
	type frame struct {
		idx   int
		depth uint8
	}
	stack := []frame{{root, 0}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := arena[f.idx]
		if n.left < 0 {
			d := f.depth
			if d == 0 {
				d = 1 // single-symbol tree
			}
			lengths[n.sym] = d
			continue
		}
		stack = append(stack, frame{n.left, f.depth + 1}, frame{n.right, f.depth + 1})
	}
	return limitDepth(lengths)
}

// limitDepth flattens code lengths exceeding MaxCodeLen while preserving
// the Kraft inequality, using the standard heuristic of repeatedly moving
// overflowing leaves up the tree.
func limitDepth(lengths map[uint16]uint8) map[uint16]uint8 {
	over := false
	for _, l := range lengths {
		if l > MaxCodeLen {
			over = true
			break
		}
	}
	if !over {
		return lengths
	}
	// Clamp and then repair Kraft sum K = Σ 2^-l ≤ 1 by lengthening the
	// shallowest repairable codes.
	type sl struct {
		sym uint16
		l   uint8
	}
	all := make([]sl, 0, len(lengths))
	for s, l := range lengths {
		if l > MaxCodeLen {
			l = MaxCodeLen
		}
		all = append(all, sl{s, l})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].l != all[j].l {
			return all[i].l < all[j].l
		}
		return all[i].sym < all[j].sym
	})
	kraft := func() float64 {
		k := 0.0
		for _, e := range all {
			k += 1.0 / float64(uint64(1)<<e.l)
		}
		return k
	}
	for kraft() > 1.0 {
		// Lengthen the deepest code shallower than the limit.
		fixed := false
		for i := len(all) - 1; i >= 0; i-- {
			if all[i].l < MaxCodeLen {
				all[i].l++
				fixed = true
				break
			}
		}
		if !fixed {
			break
		}
	}
	out := make(map[uint16]uint8, len(all))
	for _, e := range all {
		out[e.sym] = e.l
	}
	return out
}

// canonical assigns canonical codes (numerically increasing within each
// length, lengths ascending) given code lengths.
func canonical(lengths map[uint16]uint8) (syms []uint16, codes map[uint16]uint32) {
	syms = make([]uint16, 0, len(lengths))
	for s := range lengths {
		syms = append(syms, s)
	}
	sort.Slice(syms, func(i, j int) bool {
		li, lj := lengths[syms[i]], lengths[syms[j]]
		if li != lj {
			return li < lj
		}
		return syms[i] < syms[j]
	})
	codes = make(map[uint16]uint32, len(syms))
	var code uint32
	var prevLen uint8
	for _, s := range syms {
		l := lengths[s]
		code <<= l - prevLen
		codes[s] = code
		code++
		prevLen = l
	}
	return syms, codes
}

// Encode Huffman-codes the symbol stream into a self-describing byte
// buffer: header (symbol count, distinct-symbol table with code lengths)
// followed by the bit-packed payload.
func Encode(symbols []uint16) []byte {
	freq := make(map[uint16]uint64)
	for _, s := range symbols {
		freq[s]++
	}
	lengths := codeLengths(freq)
	syms, codes := canonical(lengths)

	w := bitio.NewWriter(len(symbols)/2 + 64)
	w.WriteBits(uint64(len(symbols)), 32)
	w.WriteBits(uint64(len(syms)), 17) // up to 65536 distinct symbols
	for _, s := range syms {
		w.WriteBits(uint64(s), 16)
		w.WriteBits(uint64(lengths[s]), 6)
	}
	for _, s := range symbols {
		w.WriteBits(uint64(codes[s]), uint(lengths[s]))
	}
	return w.Bytes()
}

// Decode reverses Encode. It validates the header and fails with
// ErrCorrupt on malformed input rather than panicking.
func Decode(data []byte) ([]uint16, error) {
	r := bitio.NewReader(data)
	nsym64, err := r.ReadBits(32)
	if err != nil {
		return nil, fmt.Errorf("%w: header", ErrCorrupt)
	}
	nsym := int(nsym64)
	ndist64, err := r.ReadBits(17)
	if err != nil {
		return nil, fmt.Errorf("%w: header", ErrCorrupt)
	}
	ndist := int(ndist64)
	if nsym == 0 {
		return nil, nil
	}
	if ndist == 0 || ndist > 65536 {
		return nil, fmt.Errorf("%w: %d distinct symbols", ErrCorrupt, ndist)
	}
	lengths := make(map[uint16]uint8, ndist)
	tableSyms := make([]uint16, ndist)
	for i := 0; i < ndist; i++ {
		s64, err := r.ReadBits(16)
		if err != nil {
			return nil, fmt.Errorf("%w: table", ErrCorrupt)
		}
		l64, err := r.ReadBits(6)
		if err != nil {
			return nil, fmt.Errorf("%w: table", ErrCorrupt)
		}
		if l64 == 0 || l64 > MaxCodeLen {
			return nil, fmt.Errorf("%w: code length %d", ErrCorrupt, l64)
		}
		s := uint16(s64)
		if _, dup := lengths[s]; dup {
			return nil, fmt.Errorf("%w: duplicate symbol %d", ErrCorrupt, s)
		}
		lengths[s] = uint8(l64)
		tableSyms[i] = s
	}
	// A symbol costs at least one payload bit, so a count the payload
	// cannot hold is corrupt — checked before nsym sizes anything.
	if nsym > r.Remaining() {
		return nil, fmt.Errorf("%w: %d symbols in %d payload bits", ErrCorrupt, nsym, r.Remaining())
	}
	syms, codes := canonical(lengths)
	// Build decode map: (length, code) -> symbol.
	type lc struct {
		l uint8
		c uint32
	}
	dec := make(map[lc]uint16, len(syms))
	for _, s := range syms {
		dec[lc{lengths[s], codes[s]}] = s
	}
	out := make([]uint16, 0, nsym)
	for len(out) < nsym {
		var code uint32
		var l uint8
		found := false
		for l < MaxCodeLen {
			b, err := r.ReadBit()
			if err != nil {
				return nil, fmt.Errorf("%w: payload", ErrCorrupt)
			}
			code = code<<1 | uint32(b)
			l++
			if s, ok := dec[lc{l, code}]; ok {
				out = append(out, s)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("%w: unmatched code", ErrCorrupt)
		}
	}
	return out, nil
}
