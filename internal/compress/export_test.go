package compress

// DeflateBufferReset is where the encoder's table offsets wrap.
const DeflateBufferReset = bufferReset

// SetDeflateCur puts f's matcher where a long-lived one would be after
// cur bytes of history (cur must only grow), so that a test can make the
// next Deflate rebase its table (shiftOffsets).
func SetDeflateCur(f *Flate, cur int32) {
	if f.def == nil {
		f.def = newDeflater()
	}
	f.def.cur = cur
}

// DeflateCur reports f's matcher offset.
func DeflateCur(f *Flate) int32 { return f.def.cur }

// HuffOnlyBlock reports, for a one-window input win of more than 16
// bytes, whether the writer takes its Huffman-only path, and the
// Huffman-only block's Shannon floor and size in bits as that path
// computes them, with the stored block's size beside them.
func HuffOnlyBlock(win []byte) (huffOnly bool, floor, size, stored int) {
	d := newDeflater()
	d.cur += maxMatchOffset // as deflate starts a call
	huffOnly = d.huffOnlyWindow(win, 0, len(win))
	d.huffHistogram(win)
	floor = d.huffFloor(len(win) + 1)
	size, _ = d.huffSize()
	return huffOnly, floor, size, storedSize(win)
}
