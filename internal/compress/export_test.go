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
