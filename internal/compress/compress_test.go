package compress

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestOptionsValidate(t *testing.T) {
	good := []Options{
		{Mode: Lossless},
		{Mode: Lossless, Bound: -5}, // bound ignored
		{Mode: Absolute, Bound: 1e-3},
		{Mode: PointwiseRelative, Bound: 1e-1},
	}
	for i, o := range good {
		if err := o.Validate(); err != nil {
			t.Fatalf("good case %d: %v", i, err)
		}
	}
	bad := []Options{
		{Mode: Absolute, Bound: 0},
		{Mode: Absolute, Bound: -1},
		{Mode: PointwiseRelative, Bound: math.NaN()},
		{Mode: PointwiseRelative, Bound: math.Inf(1)},
		{Mode: ErrorMode(9), Bound: 1},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Fatalf("bad case %d accepted", i)
		}
	}
}

func TestErrorModeString(t *testing.T) {
	if Lossless.String() != "lossless" || Absolute.String() != "abs" || PointwiseRelative.String() != "pwr" {
		t.Fatal("mode strings changed")
	}
	if ErrorMode(7).String() == "" {
		t.Fatal("unknown mode should still format")
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{Magic: 0x42, Mode: PointwiseRelative, Bound: 1e-4, Count: 12345}
	buf := AppendHeader(nil, h)
	got, rest, err := ParseHeader(buf, 0x42)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("header mismatch: %+v vs %+v", got, h)
	}
	if len(rest) != 0 {
		t.Fatalf("unexpected trailing payload %d", len(rest))
	}
}

func TestHeaderBadMagic(t *testing.T) {
	buf := AppendHeader(nil, Header{Magic: 1})
	if _, _, err := ParseHeader(buf, 2); err == nil {
		t.Fatal("magic mismatch accepted")
	}
	if _, _, err := ParseHeader(buf[:3], 1); err == nil {
		t.Fatal("short header accepted")
	}
}

func TestShuffleRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 8, 15, 1024} {
		src := make([]float64, n)
		for i := range src {
			src[i] = float64(i)
		}
		sh := make([]float64, n)
		back := make([]float64, n)
		Shuffle(sh, src)
		Unshuffle(back, sh)
		for i := range src {
			if back[i] != src[i] {
				t.Fatalf("n=%d idx %d: got %v want %v", n, i, back[i], src[i])
			}
		}
	}
}

func TestShuffleSeparatesStreams(t *testing.T) {
	src := []float64{1, -1, 2, -2, 3, -3, 4, -4}
	sh := make([]float64, len(src))
	Shuffle(sh, src)
	want := []float64{1, 2, 3, 4, -1, -2, -3, -4}
	for i := range want {
		if sh[i] != want[i] {
			t.Fatalf("shuffled = %v", sh)
		}
	}
}

func TestByteShuffleRoundTrip(t *testing.T) {
	for _, n := range []int{0, 8, 16, 24, 100} { // 100: non-multiple-of-8 tail
		src := make([]byte, n)
		for i := range src {
			src[i] = byte(i * 7)
		}
		sh := make([]byte, n)
		back := make([]byte, n)
		ByteShuffle(sh, src)
		ByteUnshuffle(back, sh)
		for i := range src {
			if back[i] != src[i] {
				t.Fatalf("n=%d idx %d", n, i)
			}
		}
	}
}

func TestCheckBound(t *testing.T) {
	want := []float64{1, 2, 3}
	if i := CheckBound(want, []float64{1, 2, 3}, Options{Mode: Lossless}); i != -1 {
		t.Fatalf("exact match flagged at %d", i)
	}
	if i := CheckBound(want, []float64{1, 2.05, 3}, Options{Mode: Absolute, Bound: 0.1}); i != -1 {
		t.Fatalf("in-bound flagged at %d", i)
	}
	if i := CheckBound(want, []float64{1, 2.2, 3}, Options{Mode: Absolute, Bound: 0.1}); i != 1 {
		t.Fatalf("violation index = %d, want 1", i)
	}
	if i := CheckBound(want, []float64{1, 2, 3.4}, Options{Mode: PointwiseRelative, Bound: 0.1}); i != 2 {
		t.Fatalf("violation index = %d, want 2", i)
	}
	if i := CheckBound(want, []float64{1, 2}, Options{}); i != 0 {
		t.Fatalf("length mismatch index = %d", i)
	}
}

func TestRatio(t *testing.T) {
	if r := Ratio(1024, 1024); r != 8 {
		t.Fatalf("Ratio = %v", r)
	}
	if !math.IsInf(Ratio(10, 0), 1) {
		t.Fatal("zero payload should be +Inf ratio")
	}
}

func TestQuickShuffle(t *testing.T) {
	f := func(src []float64) bool {
		sh := make([]float64, len(src))
		back := make([]float64, len(src))
		Shuffle(sh, src)
		Unshuffle(back, sh)
		for i := range src {
			if math.Float64bits(back[i]) != math.Float64bits(src[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestFloatsRoundTrip: the raw form is little-endian IEEE 754 words
// whatever the host, so the byte-view copy must give exactly the bytes
// of the portable word loop, and back — for the values a float
// conversion could mangle as well: NaN payloads (quiet, signalling,
// negative), both zeros, both infinities, the smallest and largest
// denormals. dst starts one byte in, as the engine's tagged raw blob does.
func TestFloatsRoundTrip(t *testing.T) {
	src := []float64{0, math.Copysign(0, -1), 1, -math.Pi, math.Inf(1), math.Inf(-1),
		math.Float64frombits(0x7FF8000000000123), math.Float64frombits(0x7FF0000000000001),
		math.Float64frombits(0xFFF800000000BEEF), 5e-324, -5e-324, math.Float64frombits(0x000FFFFFFFFFFFFF)}
	raw := make([]byte, 1+8*len(src)+3) // room to spare is left alone
	raw[len(raw)-1] = 0xAB
	PutFloats(raw[1:], src)
	if got := binary.LittleEndian.Uint64(raw[1+8*3:]); got != math.Float64bits(-math.Pi) || raw[len(raw)-1] != 0xAB {
		t.Fatalf("word 3 = %x, spare byte %x", got, raw[len(raw)-1])
	}
	words := make([]byte, 8*len(src))
	putWords(words, src)
	if !bytes.Equal(raw[1:1+len(words)], words) {
		t.Fatalf("PutFloats wrote % x, the word loop % x", raw[1:1+len(words)], words)
	}
	if got := AppendFloats([]byte{7}, src); got[0] != 7 || !bytes.Equal(got[1:], words) {
		t.Fatalf("AppendFloats gave % x, want 07 then % x", got, words)
	}
	if got := AppendFloats(nil, nil); len(got) != 0 {
		t.Fatalf("AppendFloats of nothing gave %d bytes", len(got))
	}
	back, wordsBack := make([]float64, len(src)), make([]float64, len(src))
	GetFloats(back, raw[1:])
	getWords(wordsBack, words)
	for i := range src {
		if want := math.Float64bits(src[i]); math.Float64bits(back[i]) != want || math.Float64bits(wordsBack[i]) != want {
			t.Fatalf("word %d: %x came back as %x (GetFloats), %x (word loop)", i, want, math.Float64bits(back[i]), math.Float64bits(wordsBack[i]))
		}
	}
}

// TestFlate: one working set, reused across calls and across failures,
// gives bytes that depend on the input alone and refuses a stream that
// outgrows the caller's ceiling.
func TestFlate(t *testing.T) {
	var f Flate
	text := bytes.Repeat([]byte("amplitude "), 500)
	first := append([]byte(nil), f.Deflate(text)...)
	f.Deflate([]byte("something else in between"))
	if again := f.Deflate(text); !bytes.Equal(first, again) {
		t.Fatalf("a reused writer gave %d bytes, a fresh one %d", len(again), len(first))
	}
	var fresh Flate
	if other := fresh.Deflate(text); !bytes.Equal(first, other) {
		t.Fatal("two working sets encode one input differently")
	}

	if _, err := f.Inflate(first, len(text)-1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("one byte past the ceiling: %v, want ErrCorrupt", err)
	}
	if _, err := f.Inflate(first[:len(first)/2], len(text)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated stream: %v, want ErrCorrupt", err)
	}
	got, err := f.Inflate(first, len(text)) // the reader recovers from both failures
	if err != nil || !bytes.Equal(got, text) {
		t.Fatalf("at the ceiling: %d bytes, %v", len(got), err)
	}
	if got, err := f.Inflate(first, 1<<30); err != nil || !bytes.Equal(got, text) {
		t.Fatalf("far below the ceiling: %d bytes, %v", len(got), err)
	}

	into := make([]byte, len(text))
	if err := f.InflateInto(into, append(first, 1, 2, 3)); err != nil || !bytes.Equal(into, text) {
		t.Fatalf("InflateInto with trailing bytes: %v", err)
	}
	if err := f.InflateInto(make([]byte, len(text)+1), first); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("stream one byte short of dst: %v, want ErrCorrupt", err)
	}
}
