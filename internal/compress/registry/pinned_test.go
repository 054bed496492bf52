package registry

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"qcsim/internal/compress"
)

var updatePinned = flag.Bool("update-pinned", false, "rewrite testdata/lossy_payload_sha256.txt from this build's codecs")

const pinnedFile = "testdata/lossy_payload_sha256.txt"

type pinnedBlock struct {
	name string
	data []float64
}

// pinnedCorpus builds the blocks TestLossyPayloadBytesPinned hashes.
// Every value is assembled from seeded integer bit patterns — no
// transcendental function, no float arithmetic — so the corpus is the
// same words on every architecture and Go release:
//
//   - random-phase: random sign and mantissa, magnitude 2^-9…2^-7 —
//     what the amplitudes of a scrambled state look like to a byte coder;
//   - periodic: a 32-word pattern of such values, repeated — a QFT of a
//     basis state is periodic in the index;
//   - zeros;
//   - odd: zeros mixed with denormals, NaNs of three payloads, ±Inf and
//     −0, the values the exception path exists for.
func pinnedCorpus() []pinnedBlock {
	rng := rand.New(rand.NewSource(19))
	amp := func() float64 {
		return math.Float64frombits(rng.Uint64()&(1<<63|(1<<52-1)) | uint64(1023-9+rng.Intn(3))<<52)
	}
	var period [32]float64
	for i := range period {
		period[i] = amp()
	}
	odd := []uint64{
		0, 0, 0, 0, 1 << 63,
		1, 0x000FFFFFFFFFFFFF, 0x8000000000000400, // denormals
		0x7FF8000000000001, 0xFFF8000000000002, 0x7FF0000000000001, // NaNs
		0x7FF0000000000000, 0xFFF0000000000000, // ±Inf
	}
	kinds := []struct {
		name string
		at   func(i int) float64
	}{
		{"random-phase", func(int) float64 { return amp() }},
		{"periodic", func(i int) float64 { return period[i%len(period)] }},
		{"zeros", func(int) float64 { return 0 }},
		{"odd", func(int) float64 {
			if rng.Intn(4) == 0 {
				return amp()
			}
			return math.Float64frombits(odd[rng.Intn(len(odd))])
		}},
	}
	var out []pinnedBlock
	for _, k := range kinds {
		for _, n := range []int{0, 1, 2, 3, 5, 130, 8192} {
			data := make([]float64, n)
			for i := range data {
				data[i] = k.at(i)
			}
			out = append(out, pinnedBlock{fmt.Sprintf("%s/%d", k.name, n), data})
		}
	}
	return out
}

// TestLossyPayloadBytesPinned holds every lossy codec's payload to the
// bytes the commit before the word-at-a-time rewrite (PR 18) produced:
// blobs are cache keys, checkpoint contents and the unit the footprint
// is counted in, so a faster encoder must emit the same ones. The file
// holds one SHA-256 per codec × mode × bound × block — the five default
// error levels pointwise-relative and absolute, plus lossless mode —
// or "rejected" where Compress refuses the combination.
func TestLossyPayloadBytesPinned(t *testing.T) {
	var opts []compress.Options
	for _, mode := range []compress.ErrorMode{compress.PointwiseRelative, compress.Absolute} {
		for _, b := range []float64{1e-5, 1e-4, 1e-3, 1e-2, 1e-1} {
			opts = append(opts, compress.Options{Mode: mode, Bound: b})
		}
	}
	opts = append(opts, compress.Options{Mode: compress.Lossless})

	var got strings.Builder
	for _, name := range Names() {
		if strings.HasPrefix(name, "zstd-like") {
			continue
		}
		codec, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, opt := range opts {
			for _, block := range pinnedCorpus() {
				sum := "rejected"
				if blob, err := codec.Compress(nil, block.data, opt); err == nil {
					sum = fmt.Sprintf("%x", sha256.Sum256(blob))
				}
				fmt.Fprintf(&got, "%s %v %g %s %s\n", name, opt.Mode, opt.Bound, block.name, sum)
			}
		}
	}
	if *updatePinned {
		if err := os.WriteFile(pinnedFile, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(pinnedFile)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d payload rows, %s pins %d", len(gotLines), pinnedFile, len(wantLines))
	}
	bad := 0
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			if bad++; bad <= 10 {
				t.Errorf("payload bytes moved:\n got %s\nwant %s", gotLines[i], wantLines[i])
			}
		}
	}
	if bad > 10 {
		t.Errorf("… and %d more rows", bad-10)
	}
}
