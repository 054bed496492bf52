package lossless

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"qcsim/internal/compress"
	"qcsim/internal/compress/codectest"
)

func TestConformance(t *testing.T) {
	codectest.ConformanceLossless(t, New(false))
	codectest.ConformanceLossless(t, New(true))
	codectest.ConformanceEmptyAndSmall(t, New(false))
	codectest.ConformanceEmptyAndSmall(t, New(true))
	codectest.ConformanceCorrupt(t, New(true))
}

// inputs is every generator the blob contracts are checked on, at the
// engine's default block size (8 192 words) and a small one.
func inputs() []codectest.Dataset {
	var all []codectest.Dataset
	for _, n := range []int{8192, 512} {
		for _, ds := range append(codectest.Datasets(n, 7), codectest.LosslessClasses(n, 7)...) {
			ds.Name = fmt.Sprintf("%s/%d", ds.Name, n)
			all = append(all, ds)
		}
	}
	return all
}

// deflateOnly is the size of the blob the codec produced when DEFLATE
// was its only layout: header, flag, DEFLATE of the (shuffled) words.
func deflateOnly(src []float64, shuffle bool) int {
	raw := make([]byte, 8*len(src))
	compress.PutFloats(raw, src)
	if shuffle {
		sh := make([]byte, len(raw))
		compress.ByteShuffle(sh, raw)
		raw = sh
	}
	var f compress.Flate
	return compress.HeaderSize + 1 + len(f.Deflate(raw))
}

// probeMisses are the blocks the probe is known to misjudge: it samples
// 1/16 of a block, and 1 000 values in 8 192 words recur inside DEFLATE's
// 32 KiB window (0.48 of raw) but hardly among 512 sampled words, so the
// plain codec stores the block. The probe predicts; it bounds nothing.
var probeMisses = map[string]bool{"zstd-like/1000-valued/8192": true}

// TestBlobContract: whatever layout a block gets, the blob round-trips
// bit for bit, is never larger than the stored form, is at most 1 % (or
// 16 bytes: a two-word dictionary is 17, and on a 4 KiB block that is
// already 80:1 DEFLATE spells the two words in fewer) larger than what
// DEFLATE alone made of it — probeMisses aside — and owns no capacity
// beyond its length.
func TestBlobContract(t *testing.T) {
	for _, shuffle := range []bool{false, true} {
		c := New(shuffle)
		for _, ds := range inputs() {
			name := c.Name() + "/" + ds.Name
			t.Run(name, func(t *testing.T) {
				blob, err := c.Compress(nil, ds.Data, compress.Options{})
				if err != nil {
					t.Fatal(err)
				}
				out := make([]float64, len(ds.Data))
				if err := c.Decompress(out, blob); err != nil {
					t.Fatal(err)
				}
				if i := compress.CheckBound(ds.Data, out, compress.Options{}); i >= 0 {
					t.Fatalf("word %d: %x came back as %x", i, math.Float64bits(ds.Data[i]), math.Float64bits(out[i]))
				}
				if max := compress.HeaderSize + 1 + 8*len(ds.Data); len(blob) > max {
					t.Errorf("blob is %d bytes, stored form is %d", len(blob), max)
				}
				ref := deflateOnly(ds.Data, shuffle)
				if miss := len(blob) > ref+max(ref/100, 16); miss && !probeMisses[name] {
					t.Errorf("blob is %d bytes (flag %d), DEFLATE alone gives %d", len(blob), blob[compress.HeaderSize], ref)
				} else if !miss && probeMisses[name] {
					t.Errorf("blob is %d bytes against DEFLATE's %d: no longer a miss, drop it from probeMisses", len(blob), ref)
				}
				if cap(blob) != len(blob) {
					t.Errorf("cap %d, len %d", cap(blob), len(blob))
				}
				// Appending to a prefix keeps it and stays exact.
				pre, err := c.Compress([]byte{7}, ds.Data, compress.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if pre[0] != 7 || !bytes.Equal(pre[1:], blob) || cap(pre) != len(pre) {
					t.Errorf("append to a 1-byte prefix: first byte %d, cap %d, len %d", pre[0], cap(pre), len(pre))
				}
			})
		}
	}
}

// TestLayoutChosen pins which layout each class of block gets: the
// choice is part of the format's size and speed contract.
func TestLayoutChosen(t *testing.T) {
	want := map[string]byte{
		"zeros": flagDict, "constant": flagDict, "basis-state": flagDict, "uniform-superposition": flagDict,
		"tiny-and-large": flagDict, "one-valued": flagDict, "two-valued-interleaved": flagDict,
		"40-valued": flagDict, "256-valued": flagDict, "signed-zero-nan-mix": flagDict,
		"257-valued": flagDeflate, "half-zero-half-random": flagDeflate, "sparse": flagDeflate,
		"four-random-sub-blocks": flagDeflate, "four-random-islands": flagDeflate,
		"random-words": flagStored, "gaussian": flagStored, "spiky": flagStored,
	}
	c := New(false)
	for _, ds := range append(codectest.Datasets(8192, 7), codectest.LosslessClasses(8192, 7)...) {
		flag, ok := want[ds.Name]
		if !ok {
			continue
		}
		blob, err := c.Compress(nil, ds.Data, compress.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := blob[compress.HeaderSize]; got != flag {
			t.Errorf("%s: layout %d, want %d (%d bytes)", ds.Name, got, flag, len(blob))
		}
	}
	// A dictionary is stored raw and must earn its keep through reuse:
	// 40 values in 512 words (12.8 uses each) are left to DEFLATE, the
	// same 40 values in 8 192 words were a dictionary above.
	for _, ds := range codectest.LosslessClasses(512, 7) {
		if ds.Name != "40-valued" {
			continue
		}
		if blob, _ := c.Compress(nil, ds.Data, compress.Options{}); blob[compress.HeaderSize] != flagDeflate {
			t.Errorf("40 values in 512 words: layout %d, want %d", blob[compress.HeaderSize], flagDeflate)
		}
	}
	// One value needs nothing after the dictionary; two values cost a
	// few dozen bytes — the paper's headline Grover ratio lives here.
	one, _ := c.Compress(nil, make([]float64, 8192), compress.Options{})
	if want := compress.HeaderSize + 1 + 1 + 8; len(one) != want {
		t.Errorf("all-zero block is %d bytes, want %d", len(one), want)
	}
}

// TestBytesArePure: the bytes are a function of src and the codec's
// configuration only — not of the goroutine, nor of what the pooled
// scratch compressed before. Cache keys, the bit-identity suites and
// the benchmark's exact metrics depend on it.
func TestBytesArePure(t *testing.T) {
	for _, shuffle := range []bool{false, true} {
		all := inputs()
		want := make([][]byte, len(all))
		for i, ds := range all {
			var err error
			if want[i], err = New(shuffle).Compress(nil, ds.Data, compress.Options{}); err != nil {
				t.Fatal(err)
			}
		}
		c := New(shuffle)
		errs := make(chan error, 8)
		for g := 0; g < 8; g++ {
			g := g
			go func() {
				out := make([]float64, 8192)
				for k := 0; k < 3*len(all); k++ {
					i := (k*7 + g*5) % len(all) // every goroutine its own order
					blob, err := c.Compress(nil, all[i].Data, compress.Options{})
					if err == nil && !bytes.Equal(blob, want[i]) {
						err = fmt.Errorf("goroutine %d: %s encodes differently after other blocks", g, all[i].Name)
					}
					if err == nil {
						err = c.Decompress(out[:len(all[i].Data)], blob)
					}
					if err != nil {
						errs <- err
						return
					}
				}
				errs <- nil
			}()
		}
		for g := 0; g < 8; g++ {
			if err := <-errs; err != nil {
				t.Error(err)
			}
		}
	}
}

// TestIndexIsFirstOccurrence holds the dictionary pass, whose run check
// skips the table for a word equal to the one two back, to the plain
// rule: each word's index is the rank of its first occurrence, and a
// block of more distinct words than its limit gets none. Equal means
// equal bits, so ±0 and NaN payloads are distinct words.
func TestIndexIsFirstOccurrence(t *testing.T) {
	a, b := 0.0078125, -0.5
	negZero, nan1, nan2 := math.Copysign(0, -1), math.Float64frombits(0x7ff8_0000_0000_0001), math.Float64frombits(0x7ff8_0000_0000_0002)
	cases := [][]float64{
		{a, 0, a, 0, a, 0, a, 0, a, 0, a, 0, a, 0, a, 0, a, 0, a, 0, a, 0, a, 0, a, 0, a, 0, a, 0, a, 0},
		{a, b, a, 0, a, b, b, b, 0, 0, 0, a, a, a, b, 0, a, b, a, 0, a, b, b, b, 0, 0, 0, a, a, a, b, 0},
		{0, negZero, 0, negZero, negZero, 0, 0, 0, nan1, nan2, nan1, nan2, nan2, nan1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
	}
	for _, ds := range codectest.LosslessClasses(1024, 7) {
		cases = append(cases, ds.Data)
	}
	s := new(scratch)
	for c, src := range cases {
		var dict []uint64
		want := make([]byte, len(src))
		for i, v := range src {
			w := math.Float64bits(v)
			k := 0
			for k < len(dict) && dict[k] != w {
				k++
			}
			if k == len(dict) {
				dict = append(dict, w)
			}
			want[i] = byte(k)
		}
		count := s.index(src)
		if limit := min(dictMax, max(1, len(src)/dictReuse)); len(dict) > limit {
			if count != 0 {
				t.Fatalf("case %d: %d distinct words over a limit of %d, but index made a dictionary of %d", c, len(dict), limit, count)
			}
			continue
		}
		if count != len(dict) || !bytes.Equal(s.aux[:len(src)], want) {
			t.Fatalf("case %d: %d words indexed %v, want %d indexed %v", c, count, s.aux[:len(src)], len(dict), want)
		}
		for k, w := range dict {
			if s.dict[k] != w {
				t.Fatalf("case %d: dictionary word %d is %#x, want %#x", c, k, s.dict[k], w)
			}
		}
	}
}

// TestFillMatchesWordLoop: the one-word dictionary's fill writes every
// word of every length, +0 by clear and others by doubling copies, as a
// word loop does.
func TestFillMatchesWordLoop(t *testing.T) {
	for _, v := range []float64{0, math.Copysign(0, -1), -0.0078125, math.Float64frombits(0x7ff8_0000_0000_0003)} {
		for n := range 40 {
			dst := make([]float64, n+1)
			for i := range dst {
				dst[i] = 42
			}
			fill(dst[:n], v)
			for i, got := range dst[:n] {
				if math.Float64bits(got) != math.Float64bits(v) {
					t.Fatalf("fill(%d words, %v): word %d is %v", n, v, i, got)
				}
			}
			if dst[n] != 42 {
				t.Fatalf("fill(%d words, %v) wrote past the end", n, v)
			}
		}
	}
}

// parentBlobs were produced by the commit before layouts 2 and 3
// existed (flag 0 by "zstd-like", flag 1 by "zstd-like+shuffle") from
// parentWords; blobs in old checkpoints look like this.
var parentBlobs = []string{
	"5a00000000000000000018000000005ccd310a833014c6f19496140aa50d851ec3c9cde165f522c14d10249baeee0e0e8238ba79047301ef20b889660a0e82e0a04bde37fef8e04fac29e8bd5454f5da594c06684c51caf1a66c9faf3f456ec00df73cca5ec837f02160937e2327fcb9b4e2937c91dff9d965c829ff3f64ac9d9f3a020000ffff",
	"5a000000000000000000180000000144c9316ac27014c7f14f6949a150da50e8319cdc1c92d58b889b20889baeee0e0e81e0e8e611fc5fc03b086ea24ec14110246f111e5fde871f7b36d12e7d3e83fff468a2230a2ec10fe6aca20f866c83530654d125793c15136aed5a33e6c44ff0ca9a6374a1e52cd8916e0e6fce99e6cbfd9b5fefb9ec4fb153a4d795499994e9190000ffff",
}

func parentWords() []float64 {
	src := make([]float64, 24)
	for i := range src {
		switch i % 3 {
		case 1:
			src[i] = 0.125 * float64(i)
		case 2:
			src[i] = -math.Sqrt(float64(i))
		}
	}
	return src
}

func TestDecodesParentBlobs(t *testing.T) {
	want := parentWords()
	for flag, h := range parentBlobs {
		blob, err := hex.DecodeString(h)
		if err != nil {
			t.Fatal(err)
		}
		if int(blob[compress.HeaderSize]) != flag {
			t.Fatalf("fixture %d carries flag %d", flag, blob[compress.HeaderSize])
		}
		for _, c := range []*Codec{New(false), New(true)} { // either codec decodes either flag
			got := make([]float64, len(want))
			if err := c.Decompress(got, blob); err != nil {
				t.Fatalf("flag %d: %v", flag, err)
			}
			if i := compress.CheckBound(want, got, compress.Options{}); i >= 0 {
				t.Fatalf("flag %d: word %d is %v, want %v", flag, i, got[i], want[i])
			}
		}
	}
}

// body builds a blob for n words from a flag and the bytes after it.
func body(n int, flag byte, rest ...byte) []byte {
	b := compress.AppendHeader(nil, compress.Header{Magic: magic, Count: uint32(n)})
	return append(append(b, flag), rest...)
}

func TestCorruptBodies(t *testing.T) {
	c := New(false)
	words := func(ws ...float64) []byte {
		b := make([]byte, 8*len(ws))
		compress.PutFloats(b, ws)
		return b
	}
	deflated := func(p []byte) []byte {
		var f compress.Flate
		return append([]byte(nil), f.Deflate(p)...)
	}
	for name, blob := range map[string][]byte{
		"no flag":                   body(4, 0)[:compress.HeaderSize],
		"unknown flag":              body(4, 4, words(1, 2, 3, 4)...),
		"stored, short":             body(4, flagStored, words(1, 2, 3)...),
		"stored, long":              body(4, flagStored, words(1, 2, 3, 4, 5)...),
		"dictionary, no count":      body(4, flagDict),
		"dictionary, short":         body(4, flagDict, append([]byte{1}, words(1)...)...),
		"dictionary, index ≥ count": body(4, flagDict, append(append([]byte{1}, words(1, 2)...), deflated([]byte{0, 1, 2, 0})...)...),
		"dictionary, few indices":   body(4, flagDict, append(append([]byte{1}, words(1, 2)...), deflated([]byte{0, 1, 0})...)...),
		"dictionary, bad stream":    body(4, flagDict, append(append([]byte{1}, words(1, 2)...), 0xFF, 0xFF, 0xFF)...),
		"one word, trailing bytes":  body(4, flagDict, append(append([]byte{0}, words(1)...), 9)...),
		"deflate, bad stream":       body(4, flagDeflate, 0xFF, 0xFF, 0xFF),
		"deflate, short":            body(4, flagDeflate, deflated(words(1, 2, 3))...),
	} {
		if err := c.Decompress(make([]float64, 4), blob); !errors.Is(err, compress.ErrCorrupt) {
			t.Errorf("%s: %v, want ErrCorrupt", name, err)
		}
	}
	// The well-formed twins of the above decode.
	for name, blob := range map[string][]byte{
		"stored":     body(4, flagStored, words(1, 2, 3, 4)...),
		"dictionary": body(4, flagDict, append(append([]byte{1}, words(1, 2)...), deflated([]byte{0, 1, 1, 0})...)...),
		"one word":   body(4, flagDict, append([]byte{0}, words(1)...)...),
	} {
		if err := c.Decompress(make([]float64, 4), blob); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestOverlongStream: the three layouts that inflate do so into a buffer
// sized from the header's count, so a stream that goes on for 64 MiB
// behind flag 0, 1 or 3 is read as far as the block needs (all zeros
// here) and no further. Trailing bytes are tolerated, as they were when
// flags 0 and 1 were the only two; what matters is that nothing of the
// stream's size is ever allocated.
func TestOverlongStream(t *testing.T) {
	const n = 512
	var f compress.Flate
	stream := f.Deflate(make([]byte, 64<<20))
	twoWords := make([]byte, 1+16)
	twoWords[0] = 1 // count−1
	c, out := New(false), make([]float64, n)
	for flag, blob := range map[byte][]byte{
		flagDeflate:  body(n, flagDeflate, stream...),
		flagShuffled: body(n, flagShuffled, stream...),
		flagDict:     body(n, flagDict, append(twoWords, stream...)...),
	} {
		for i := range out {
			out[i] = 1
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := c.Decompress(out, blob)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Errorf("flag %d: %v", flag, err)
		}
		for i, v := range out {
			if v != 0 {
				t.Fatalf("flag %d: word %d is %v, want 0", flag, i, v)
			}
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("flag %d: allocated %d bytes on a %d-word block", flag, grew, n)
		}
	}
}

// TestAllocations is the steady-state allocation contract. Compress
// allocates the blob and nothing else, whatever the layout; Decompress
// allocates nothing, whatever the layout (while compress/flate did the
// inflating it built the overflow links of every dynamic Huffman table
// afresh, up to 58 `make`s a stream on these classes). Every count but
// the stored and one-valued decodes, which take no scratch, rests on the
// pooled scratch being there, which the race detector's sync.Pool does
// not promise: under it only those two are counted (CI runs this test
// without it as well).
func TestAllocations(t *testing.T) {
	c := New(false)
	for _, ds := range append(codectest.Datasets(8192, 7), codectest.LosslessClasses(8192, 7)...) {
		blob, err := c.Compress(nil, ds.Data, compress.Options{})
		if err != nil {
			t.Fatal(err)
		}
		flag, rest := blob[compress.HeaderSize], blob[compress.HeaderSize+1:]
		pooled := !(flag == flagStored || flag == flagDict && rest[0] == 0)
		if !codectest.RaceEnabled {
			enc := testing.AllocsPerRun(20, func() {
				if _, err := c.Compress(nil, ds.Data, compress.Options{}); err != nil {
					t.Fatal(err)
				}
			})
			if enc != 1 {
				t.Errorf("%s: Compress allocates %v times, want 1 (the blob)", ds.Name, enc)
			}
		} else if pooled {
			continue
		}
		out := make([]float64, len(ds.Data))
		dec := testing.AllocsPerRun(20, func() {
			if err := c.Decompress(out, blob); err != nil {
				t.Fatal(err)
			}
		})
		if dec != 0 {
			t.Errorf("%s (flag %d): Decompress allocates %v times, want 0", ds.Name, flag, dec)
		}
	}
}

func TestLossyModeIsStillExact(t *testing.T) {
	// A lossless codec asked for a lossy bound must still reconstruct
	// exactly (the simulator's level-0 path).
	c := New(false)
	data := codectest.Datasets(1024, 5)[8].Data // gaussian
	out := codectest.RoundTrip(t, c, data, compress.Options{Mode: compress.PointwiseRelative, Bound: 1e-1})
	for i := range data {
		if data[i] != out[i] {
			t.Fatalf("index %d not exact", i)
		}
	}
}

func TestZerosCompressWell(t *testing.T) {
	// §3.7: early simulation states are mostly zero and must compress
	// heavily under the lossless stage.
	data := make([]float64, 1<<14)
	data[3] = 1
	c := New(false)
	payload, err := c.Compress(nil, data, compress.Options{Mode: compress.Lossless})
	if err != nil {
		t.Fatal(err)
	}
	if r := compress.Ratio(len(data), len(payload)); r < 100 {
		t.Fatalf("zero-dominated block ratio = %.1f, want ≥ 100", r)
	}
}

func TestShuffleHelpsConstantData(t *testing.T) {
	data := make([]float64, 4096)
	for i := range data {
		data[i] = 0.0078125 + float64(i%2)*1e-9
	}
	plain := New(false)
	shuf := New(true)
	p1, err := plain.Compress(nil, data, compress.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := shuf.Compress(nil, data, compress.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Byte shuffle should not be catastrophically worse; on this highly
	// regular data both compress far below raw size.
	if len(p1) > len(data)*2 || len(p2) > len(data)*2 {
		t.Fatalf("regular data compressed poorly: plain=%d shuffle=%d raw=%d", len(p1), len(p2), len(data)*8)
	}
}

func TestName(t *testing.T) {
	if New(false).Name() != "zstd-like" || New(true).Name() != "zstd-like+shuffle" {
		t.Fatal("names changed")
	}
}

func TestConcurrentUseConformance(t *testing.T) {
	codectest.ConformanceConcurrent(t, New(false))
}

// FuzzLosslessDecompress: whatever follows a valid header — bytes from
// a checkpoint or the wire — Decompress returns nil or ErrCorrupt; it
// never panics and never writes outside dst.
func FuzzLosslessDecompress(f *testing.F) {
	const n = 16
	src := make([]float64, n)
	for i := range src {
		src[i] = float64(i%3) - 1
	}
	for _, c := range []*Codec{New(false), New(true)} {
		for _, in := range [][]float64{src, make([]float64, n), codectest.Datasets(n, 1)[8].Data} {
			blob, err := c.Compress(nil, in, compress.Options{})
			if err != nil {
				f.Fatal(err)
			}
			f.Add(blob[compress.HeaderSize:])
		}
	}
	for _, h := range parentBlobs { // flags 0 and 1 (for 24 words: a count mismatch, also a seed)
		blob, _ := hex.DecodeString(h)
		f.Add(blob[compress.HeaderSize:])
	}
	f.Add([]byte{flagStored})
	f.Add([]byte{flagDict, 255})
	f.Add([]byte{4, 1, 2, 3})
	c := New(false)
	f.Fuzz(func(t *testing.T, data []byte) {
		dst := make([]float64, n+1)
		dst[n] = 42
		blob := append(compress.AppendHeader(nil, compress.Header{Magic: magic, Count: n}), data...)
		if err := c.Decompress(dst[:n], blob); err != nil && !errors.Is(err, compress.ErrCorrupt) {
			t.Fatalf("error %v is not ErrCorrupt", err)
		}
		if dst[n] != 42 {
			t.Fatal("wrote past dst")
		}
	})
}

var benchSink int

// BenchmarkLosslessCodec times one 8 192-word (64 KiB) block of each
// class through Compress and Decompress: MB/s of raw words, the ratio,
// and allocations per call.
func BenchmarkLosslessCodec(b *testing.B) {
	const n = 8192
	classes := codectest.LosslessClasses(n, 7)
	pick := func(name string) []float64 {
		for _, ds := range classes {
			if ds.Name == name {
				return ds.Data
			}
		}
		b.Fatalf("no generator %q", name)
		return nil
	}
	c := New(false)
	for _, bc := range []struct {
		name string
		data []float64
	}{
		{"constant", pick("one-valued")},
		{"2-valued", pick("two-valued-interleaved")},
		{"40-valued", pick("40-valued")},
		{"in-between", pick("half-zero-half-random")},
		{"incompressible", pick("random-words")},
	} {
		blob, err := c.Compress(nil, bc.data, compress.Options{})
		if err != nil {
			b.Fatal(err)
		}
		ratio := compress.Ratio(n, len(blob))
		b.Run(bc.name+"/enc", func(b *testing.B) {
			b.SetBytes(8 * n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := c.Compress(nil, bc.data, compress.Options{})
				if err != nil {
					b.Fatal(err)
				}
				benchSink += len(out)
			}
			b.ReportMetric(ratio, "ratio")
		})
		b.Run(bc.name+"/dec", func(b *testing.B) {
			out := make([]float64, n)
			b.SetBytes(8 * n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.Decompress(out, blob); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(ratio, "ratio")
		})
	}
}
