package core

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"qcsim/internal/compress"
	"qcsim/internal/compress/codectest"
	"qcsim/internal/quantum"
)

// linearScanSample is the pre-streaming Sample path, the reference for
// the bit-identity property: materialize the full vector, then let
// quantum.State.Sample compare each raw uniform draw against the
// un-normalized running mass in global index order — including the
// fall-through-to-0 bug the streaming sampler fixes, which is exactly
// what the bias regression test below exercises.
func linearScanSample(t testing.TB, s *Simulator, rng *rand.Rand, shots int) []uint64 {
	t.Helper()
	amps, err := s.FullState()
	if err != nil {
		t.Fatal(err)
	}
	return (&quantum.State{N: s.Qubits(), Amps: amps}).Sample(rng, shots)
}

// scanResolve is the streaming sampler as it resolved shots before they
// were bucketed by block: one at a time, each by a linear scan of the
// running mass over its block. It shares the CDF with sp and nothing
// else — the reference the bucketed, binary-searching,
// fanned-out Sample must match shot for shot, on lossy states too.
func scanResolve(t testing.TB, sp *Sampler, rng *rand.Rand, shots int) []uint64 {
	t.Helper()
	s := sp.s
	nb := s.blocksPerRank()
	decoded := make(map[int][]float64) // by global block, filled on first touch
	out := make([]uint64, shots)
	for k := range out {
		u := rng.Float64() * sp.total
		gb := sort.Search(len(sp.cum), func(i int) bool { return u < sp.cum[i] })
		if gb == len(sp.cum) {
			for gb = len(sp.cum) - 1; gb > 0 && blockMass(sp.cum, gb) == 0; gb-- {
			}
		}
		amps := decoded[gb]
		if amps == nil {
			blob, err := s.ranks[gb/nb].store.Peek(gb % nb)
			if err != nil {
				t.Fatal(err)
			}
			amps = make([]float64, 2*sp.ba)
			if err := s.decodeBlob(blob, amps); err != nil {
				t.Fatal(err)
			}
			decoded[gb] = amps
		}
		acc := 0.0
		if gb > 0 {
			acc = sp.cum[gb-1]
		}
		idx, lastNZ := -1, -1
		for o := 0; o < sp.ba; o++ {
			re, im := amps[2*o], amps[2*o+1]
			m := float64(re*re) + float64(im*im)
			if m != 0 {
				lastNZ = o
			}
			acc += m
			if u < acc {
				idx = o
				break
			}
		}
		if idx < 0 {
			if idx = lastNZ; idx < 0 {
				idx = sp.ba - 1
			}
		}
		out[k] = s.compose(gb/nb, gb%nb, idx)
	}
	return out
}

func equalShots(t testing.TB, what string, got, want []uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d shots, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: shot %d: got %d, want %d", what, i, got[i], want[i])
		}
	}
}

// lossyOddSupport is the configuration and circuit of a state whose
// support is exactly the odd basis indices (X on qubit 0, H everywhere
// else) under a deliberately coarse lossy codec, so the compressed norm
// lands well below 1 while the amplitude of |0...0⟩ stays exactly zero.
func lossyOddSupport(n int) (func(*Config), *quantum.Circuit) {
	c := quantum.NewCircuit(n).X(0)
	for q := 1; q < n; q++ {
		c.H(q)
	}
	return func(c *Config) {
		c.MemoryBudget = 1 // escalate at the first gate boundary
		c.ErrorLevels = []float64{0.4}
	}, c
}

// TestSamplerMatchesLinearScan: for the same seed the streaming sampler
// must select the same outcomes as resolving every shot by a linear
// scan — scanResolve always, the old full-vector scan wherever the
// state is lossless — across dense, redundant and lossy states, the
// target-segment geometries, worker counts, block stores and codecs,
// LRU sizes below, at and above the touched-block count, and calls with
// far more and far fewer shots than blocks, repeated on one Sampler (so
// the LRU is cold, warm, bypassed and warm again).
func TestSamplerMatchesLinearScan(t *testing.T) {
	const n = 8
	lossyCfg, lossyCircuit := lossyOddSupport(n)
	states := []struct {
		name  string
		cfg   func(*Config)
		prep  func(*Simulator) error
		lossy bool
	}{
		// A Hadamard layer plus a random tail: spreads mass across every
		// block while mixing single-qubit, cross-block, and cross-rank gates.
		{"dense", nil, func(s *Simulator) error { return s.Run(quantum.RandomCircuit(n, 24, 7)) }, false},
		{"hadamard", nil, func(s *Simulator) error { return s.Run(quantum.HadamardAll(n)) }, false},
		{"ghz", nil, func(s *Simulator) error { return s.Run(quantum.GHZ(n)) }, false},
		{"basis", nil, func(s *Simulator) error { return s.SetBasisState(201) }, false},
		{"lossy", lossyCfg, func(s *Simulator) error { return s.Run(lossyCircuit) }, true},
	}
	geos := []struct {
		name      string
		ranks, ba int
	}{
		{"1rank-1block", 1, 256},
		{"1rank-32blocks", 1, 8},
		{"2ranks-16blocks", 2, 8},
		{"4ranks-8blocks", 4, 8},
		{"16ranks-2blocks", 16, 8},
	}
	stores := []struct {
		name string
		cfg  func(*testing.T, *Config)
	}{
		{"ram", func(*testing.T, *Config) {}},
		{"uncompressed", func(_ *testing.T, c *Config) { c.Uncompressed = true }},
		// A tight spill RAM budget forces the sampler's prefetch-hinted
		// path: same outcomes through the tiered store.
		{"spill", func(t *testing.T, c *Config) {
			c.SpillDir = t.TempDir()
			c.SpillRAMBudget = 512
		}},
	}
	for _, st := range states {
		for _, geo := range geos {
			for _, workers := range []int{1, 3} {
				for _, store := range stores {
					if st.lossy && store.name == "uncompressed" {
						continue // raw blocks shed no mass
					}
					s := newSim(t, n, geo.ranks, geo.ba, func(c *Config) {
						c.Workers = workers
						if st.cfg != nil {
							st.cfg(c)
						}
						store.cfg(t, c)
					})
					if err := st.prep(s); err != nil {
						t.Fatal(err)
					}
					blocks := (1 << n) / geo.ba
					for _, lines := range []int{1, 8, blocks} {
						what := fmt.Sprintf("%s/%s/workers=%d/%s/lines=%d", st.name, geo.name, workers, store.name, lines)
						sp, err := s.NewSampler(lines)
						if err != nil {
							t.Fatal(err)
						}
						if st.lossy && sp.TotalMass() >= 0.99 {
							t.Fatalf("%s: lossy codec shed no mass (%v)", what, sp.TotalMass())
						}
						got, ref, lin := rand.New(rand.NewSource(42)), rand.New(rand.NewSource(42)), rand.New(rand.NewSource(42))
						for call, shots := range []int{5, 64 * blocks, 5, 64 * blocks} {
							out, err := sp.Sample(got, shots)
							if err != nil {
								t.Fatal(err)
							}
							equalShots(t, fmt.Sprintf("%s/call %d vs scanResolve", what, call), out, scanResolve(t, sp, ref, shots))
							if !st.lossy {
								equalShots(t, fmt.Sprintf("%s/call %d vs linear scan", what, call), out, linearScanSample(t, s, lin, shots))
							}
						}
					}
				}
			}
		}
	}
}

// draws is a rand.Source that makes rand.Float64 return exactly rs[i],
// cycled: Float64 is Int63()/2^63, and a float64 in [2^-10, 1) times
// 2^63 is an integer.
type draws struct {
	rs []float64
	i  int
}

func (d *draws) Int63() int64 { d.i++; return int64(d.rs[(d.i-1)%len(d.rs)] * (1 << 63)) }
func (d *draws) Seed(int64)   {}

// drawInto returns an r whose draw fl(r·total) lands in [lo, hi).
func drawInto(t *testing.T, total, lo, hi float64) float64 {
	t.Helper()
	r := lo / total
	for i := 0; i < 8; i++ {
		r = math.Nextafter(r, 0)
	}
	for i := 0; i < 16; i++ {
		if u := r * total; lo <= u && u < hi {
			return r
		}
		r = math.Nextafter(r, 1)
	}
	t.Fatalf("no draw lands in [%v, %v) of total %v", lo, hi, total)
	return 0
}

// TestSamplerBoundaryDraws pins the edges of the two binary searches
// with draws placed exactly on them, at both worker counts and through
// both the LRU and the bypass.
func TestSamplerBoundaryDraws(t *testing.T) {
	for _, workers := range []int{1, 3} {
		for _, lines := range []int{1, 16} {
			// Support {bits 0, 1, 5}, 16-amplitude blocks: blocks 0 and 2
			// carry mass in offsets 0..3, block 1 between them and blocks
			// 3..15 after them carry none.
			s := newSim(t, 8, 1, 16, func(c *Config) { c.Workers = workers })
			if err := s.Run(quantum.NewCircuit(8).H(0).H(1).H(5)); err != nil {
				t.Fatal(err)
			}
			sp, err := s.NewSampler(lines)
			if err != nil {
				t.Fatal(err)
			}
			if blockMass(sp.cum, 0) == 0 || blockMass(sp.cum, 1) != 0 || blockMass(sp.cum, 2) == 0 || sp.cum[2] != sp.total {
				t.Fatalf("scenario void: cum = %v", sp.cum[:4])
			}
			sample := func(rs ...float64) []uint64 {
				t.Helper()
				out, err := sp.Sample(rand.New(&draws{rs: rs}), len(rs))
				if err != nil {
					t.Fatal(err)
				}
				equalShots(t, "vs scanResolve", out, scanResolve(t, sp, rand.New(&draws{rs: rs}), len(rs)))
				return out
			}

			// A zero-mass block between two massive ones: the draw just below
			// the boundary is block 0's last amplitude with mass, the draw ON
			// it skips block 1 for block 2's first.
			below := drawInto(t, sp.total, math.Nextafter(sp.cum[0], 0), sp.cum[0])
			on := drawInto(t, sp.total, sp.cum[0], math.Nextafter(sp.cum[0], 1))
			equalShots(t, "zero-mass block", sample(below, on, 0), []uint64{3, 32, 0})

			// shots == 0 draws nothing and touches nothing.
			if out := sample(); len(out) != 0 {
				t.Fatalf("zero shots returned %v", out)
			}

			// fl(r·total) == total: the search runs off the end of cum and
			// must clamp to the last block CARRYING mass (2, not 15), where
			// the draw then outruns the fold and resolves to the last
			// amplitude carrying mass (offset 3, not 15). rand.Float64 tops
			// out at 1-2^-53, which no total rounds back up to itself, so
			// the test moves total one ulp up to stand in for a draw that did.
			top := 1 - 0x1p-53
			sp.total = math.Nextafter(sp.total, 2)
			if u := top * sp.total; u < sp.cum[len(sp.cum)-1] {
				t.Fatalf("scenario void: top draw %v below the final boundary %v", u, sp.cum[len(sp.cum)-1])
			}
			equalShots(t, "clamp", sample(top, 0, top), []uint64{35, 0, 35})
		}
	}
}

// TestSamplerFoldFallsShort: the intra-block fold re-accumulates from
// cum[gb-1] amplitude by amplitude, so its endpoint can land an ulp
// short of cum[gb] (which added the block's mass in one piece). A draw
// in that gap belongs to block gb and must resolve to its last
// amplitude carrying mass — here offset 3, qubit 2 being |0⟩ — not to
// the block's last offset or an arbitrary basis state.
func TestSamplerFoldFallsShort(t *testing.T) {
	c := quantum.NewCircuit(8)
	rng := rand.New(rand.NewSource(5))
	for _, q := range []int{0, 1, 3, 4, 5, 6, 7} {
		c.RY(q, 0.3+float64(2.5*rng.Float64()))
	}
	for _, workers := range []int{1, 3} {
		s := newSim(t, 8, 2, 8, func(c *Config) { c.Workers = workers })
		if err := s.Run(c); err != nil {
			t.Fatal(err)
		}
		sp, err := s.NewSampler(1)
		if err != nil {
			t.Fatal(err)
		}
		var rs []float64
		var want []uint64
		amps := make([]float64, 2*sp.ba)
		nb := s.blocksPerRank()
		for gb := 1; gb < len(sp.cum); gb++ {
			blob, err := s.ranks[gb/nb].store.Peek(gb % nb)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.decodeBlob(blob, amps); err != nil {
				t.Fatal(err)
			}
			end := sp.cum[gb-1]
			for o := 0; o < sp.ba; o++ {
				end += float64(amps[2*o]*amps[2*o]) + float64(amps[2*o+1]*amps[2*o+1])
			}
			if end < sp.cum[gb] {
				rs = append(rs, drawInto(t, sp.total, end, sp.cum[gb]))
				want = append(want, s.compose(gb/nb, gb%nb, 3))
			}
		}
		if len(rs) == 0 {
			t.Fatal("scenario void: no block's fold ends short of its boundary")
		}
		out, err := sp.Sample(rand.New(&draws{rs: rs}), len(rs))
		if err != nil {
			t.Fatal(err)
		}
		equalShots(t, "fold gap", out, want)
		equalShots(t, "fold gap vs scanResolve", out, scanResolve(t, sp, rand.New(&draws{rs: rs}), len(rs)))
	}
}

// TestSamplerMatchesSampleStream: Sample with a nil rng must keep using
// the simulator's dedicated seeded sampling stream across calls, as the
// old path did.
func TestSamplerMatchesSampleStream(t *testing.T) {
	mk := func() *Simulator {
		s := newSim(t, 6, 1, 8, nil)
		if err := s.Run(quantum.GHZ(6)); err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := mk(), mk()
	av1, err := a.Sample(nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	av2, err := a.Sample(nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	bv, err := b.Sample(nil, 20)
	if err != nil {
		t.Fatal(err)
	}
	for i := range bv {
		var want uint64
		if i < 10 {
			want = av1[i]
		} else {
			want = av2[i-10]
		}
		if bv[i] != want {
			t.Fatalf("shot %d: split calls drew %d, single call %d", i, want, bv[i])
		}
	}
}

// oddSupportLossyState builds the lossyOddSupport state on 6 qubits. Any
// sampled even index — in particular 0 — can only come from the
// fall-through bug.
func oddSupportLossyState(t *testing.T) *Simulator {
	t.Helper()
	cfg, c := lossyOddSupport(6)
	s := newSim(t, 6, 1, 8, cfg)
	if err := s.Run(c); err != nil {
		t.Fatal(err)
	}
	// Validate the scenario really exercises the bias: mass must have
	// been shed, and index 0 must carry none of it.
	norm, err := s.Norm()
	if err != nil {
		t.Fatal(err)
	}
	if norm >= 0.99 {
		t.Fatalf("lossy codec shed no mass (norm %v); bias scenario void", norm)
	}
	if a0, err := s.Amplitude(0); err != nil || a0 != 0 {
		t.Fatalf("amplitude(0) = %v, %v; want exactly 0", a0, err)
	}
	return s
}

// TestSampleLossyNormBiasFixed is the regression test for the
// fall-through bias: under a lossy codec the old linear scan resolved
// every draw past the accumulated (sub-1) mass to basis state 0,
// inflating |0...0⟩ in every lossy histogram. The reference
// implementation must reproduce that bias on this state (proving the
// scenario bites), and the streaming sampler must be structurally free
// of it: normalized draws can never land past the total mass.
func TestSampleLossyNormBiasFixed(t *testing.T) {
	s := oddSupportLossyState(t)
	const shots = 512
	ref := linearScanSample(t, s, rand.New(rand.NewSource(11)), shots)
	biased := 0
	for _, v := range ref {
		if v%2 == 0 {
			biased++
		}
	}
	if biased == 0 {
		t.Fatal("pre-fix reference produced no biased outcomes; scenario does not exercise the bug")
	}
	got, err := s.Sample(rand.New(rand.NewSource(11)), shots)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v%2 == 0 {
			t.Fatalf("shot %d: sampled even index %d, which has zero amplitude (lossy fall-through bias)", i, v)
		}
	}
	sp, err := s.NewSampler(2)
	if err != nil {
		t.Fatal(err)
	}
	if tm := sp.TotalMass(); tm >= 0.99 || tm <= 0 {
		t.Fatalf("TotalMass = %v, want the shed-mass norm in (0, 0.99)", tm)
	}
}

// TestSamplerStaleness: a Sampler is bound to the state it was built
// from; every mutation route (Run, Reset, Load) must invalidate it.
func TestSamplerStaleness(t *testing.T) {
	s := newSim(t, 6, 2, 8, nil)
	if err := s.Run(quantum.GHZ(6)); err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := s.Save(&ckpt); err != nil {
		t.Fatal(err)
	}
	mutate := []struct {
		name string
		do   func() error
	}{
		{"run", func() error { return s.Run(quantum.NewCircuit(6).H(0)) }},
		{"reset", s.Reset},
		{"load", func() error { return s.Load(bytes.NewReader(ckpt.Bytes())) }},
	}
	for _, m := range mutate {
		sp, err := s.NewSampler(1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sp.Sample(nil, 4); err != nil {
			t.Fatalf("%s: fresh sampler failed: %v", m.name, err)
		}
		if err := m.do(); err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if _, err := sp.Sample(nil, 4); !errors.Is(err, ErrSamplerStale) {
			t.Fatalf("%s: sampled from a stale sampler (err %v)", m.name, err)
		}
	}
}

// TestSamplerRejectsBadInput: negative shots and zero-mass states must
// error, not panic or mislead.
func TestSamplerRejectsBadInput(t *testing.T) {
	s := newSim(t, 4, 1, 4, nil)
	if _, err := s.Sample(nil, -1); err == nil {
		t.Fatal("negative shot count accepted")
	}
	sp, err := s.NewSampler(1)
	if err != nil {
		t.Fatal(err)
	}
	if out, err := sp.Sample(nil, 0); err != nil || len(out) != 0 {
		t.Fatalf("zero shots: %v, %v", out, err)
	}
	// Corrupt a block: the CDF build must surface the codec error.
	if err := s.ranks[0].store.Put(1, []byte{0xFF, 0x01}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.NewSampler(1); err == nil {
		t.Fatal("sampler built over a corrupt block")
	}
}

// TestSamplerLargeRegister: the point of the streaming path — drawing
// shots from a register whose state vector (4 GB at 28 qubits) could
// never be materialized. |0...0⟩ and a far-up basis state must both
// sample exactly, through compressed blocks alone.
func TestSamplerLargeRegister(t *testing.T) {
	s, err := New(Config{Qubits: 28, Ranks: 1, BlockAmps: 4096, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	const target = uint64(1)<<27 | 12345
	if err := s.SetBasisState(target); err != nil {
		t.Fatal(err)
	}
	sp, err := s.NewSampler(2)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sp.Sample(nil, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != target {
			t.Fatalf("shot %d: got %d, want %d", i, v, target)
		}
	}
	if tm := sp.TotalMass(); tm != 1 {
		t.Fatalf("TotalMass = %v on a basis state, want exactly 1", tm)
	}
}

// countingCodec counts the Compress (enc) and Decompress (dec) calls of
// the codec it wraps, into whichever counters are set.
type countingCodec struct {
	compress.Codec
	enc, dec *atomic.Int64
}

func (c countingCodec) Compress(dst []byte, src []float64, opt compress.Options) ([]byte, error) {
	if c.enc != nil {
		c.enc.Add(1)
	}
	return c.Codec.Compress(dst, src, opt)
}

func (c countingCodec) Decompress(dst []float64, blob []byte) error {
	if c.dec != nil {
		c.dec.Add(1)
	}
	return c.Codec.Decompress(dst, blob)
}

// touchedBlocks counts the distinct blocks a call's outcomes fell in.
func touchedBlocks(s *Simulator, out []uint64) int {
	seen := map[uint64]bool{}
	for _, v := range out {
		seen[v/uint64(s.blockAmps())] = true
	}
	return len(seen)
}

// TestSamplerDecodeCounts is the sampler's codec-traffic contract on a
// dense state (32 distinct blocks, 8 LRU lines): a call decodes each
// block it touches once however many shots land there; a repeat of a
// call narrow enough for the LRU decodes nothing; and a call too wide
// for the LRU goes around it, leaving its lines as they were.
func TestSamplerDecodeCounts(t *testing.T) {
	for _, workers := range []int{1, 3} {
		s := newSim(t, 8, 1, 8, func(c *Config) { c.Workers = workers })
		if err := s.Run(quantum.QAOA(8, 1, 7)); err != nil {
			t.Fatal(err)
		}
		var dec atomic.Int64
		s.cfg.Lossless = countingCodec{Codec: s.cfg.Lossless, dec: &dec}
		sp, err := s.NewSampler(8)
		if err != nil {
			t.Fatal(err)
		}
		call := func(seed int64, shots int) (touched int, decodes int64) {
			t.Helper()
			dec.Store(0)
			out, err := sp.Sample(rand.New(rand.NewSource(seed)), shots)
			if err != nil {
				t.Fatal(err)
			}
			return touchedBlocks(s, out), dec.Load()
		}
		lruState := func() map[decodedKey]int64 {
			ticks := map[decodedKey]int64{}
			for k, l := range sp.cache.lines {
				ticks[k] = l.tick
			}
			return ticks
		}

		if touched, decodes := call(1, 4096); touched != 32 || decodes != 32 {
			t.Fatalf("workers=%d: wide call touched %d blocks with %d decodes, want 32 and 32", workers, touched, decodes)
		}
		if len(sp.cache.lines) != 0 {
			t.Fatalf("workers=%d: a call too wide for the LRU filled %d lines", workers, len(sp.cache.lines))
		}
		touched, decodes := call(2, 6)
		if touched < 2 || touched > 6 || decodes != int64(touched) || len(sp.cache.lines) != touched {
			t.Fatalf("workers=%d: cold narrow call touched %d blocks with %d decodes into %d lines", workers, touched, decodes, len(sp.cache.lines))
		}
		if _, decodes := call(2, 6); decodes != 0 {
			t.Fatalf("workers=%d: repeat narrow call decoded %d blocks, want 0", workers, decodes)
		}
		before := lruState()
		if touched, decodes := call(3, 4096); decodes != int64(touched) {
			t.Fatalf("workers=%d: wide call touched %d blocks with %d decodes", workers, touched, decodes)
		}
		if after := lruState(); !maps.Equal(before, after) {
			t.Fatalf("workers=%d: a wide call changed the LRU: %v → %v", workers, before, after)
		}
		if _, decodes := call(2, 6); decodes != 0 {
			t.Fatalf("workers=%d: narrow call after a wide one decoded %d blocks, want 0", workers, decodes)
		}
	}
}

// TestSamplerRedundantBlocksDecodeOnce: a uniform superposition is one
// compressed blob repeated in every block. A narrow call holds it in one
// content-keyed LRU line; a wide one decodes it once per worker, not
// once per block.
func TestSamplerRedundantBlocksDecodeOnce(t *testing.T) {
	s := newSim(t, 10, 1, 64, func(c *Config) { c.Workers = 1 })
	if err := s.Run(quantum.HadamardAll(10)); err != nil {
		t.Fatal(err)
	}
	var dec atomic.Int64
	s.cfg.Lossless = countingCodec{Codec: s.cfg.Lossless, dec: &dec}
	sp, err := s.NewSampler(8)
	if err != nil {
		t.Fatal(err)
	}
	dec.Store(0)
	for _, shots := range []int{4, 4, 4096} {
		out, err := sp.Sample(nil, shots)
		if err != nil {
			t.Fatal(err)
		}
		if touched := touchedBlocks(s, out); shots > 8 && touched <= 8 {
			t.Fatalf("%d shots touched only %d blocks", shots, touched)
		}
	}
	if n, lines := dec.Load(), len(sp.cache.lines); n != 2 || lines != 1 {
		t.Fatalf("%d decodes into %d lines, want 2 (one per LRU fill, one per wide call) into 1", n, lines)
	}
}

// distinctReads is what a mass read of the blocks holding qubit q set
// (every block when q is -1 or an offset qubit) should decode: on each
// rank, one decode per distinct compact blob and one per other block.
func distinctReads(t *testing.T, s *Simulator, q int) (decodes int64) {
	t.Helper()
	var mask uint64
	if q >= s.offsetBits {
		mask = 1 << uint(q)
	}
	for r, rs := range s.ranks {
		seen := map[string]bool{}
		for b := range s.blocksPerRank() {
			if s.compose(r, b, 0)&mask != mask {
				continue
			}
			blob, err := rs.store.Peek(b)
			if err != nil {
				t.Fatal(err)
			}
			if !s.compact(blob) || !seen[string(blob)] {
				seen[string(blob)] = true
				decodes++
			}
		}
	}
	return decodes
}

// diagonalReads is what a diagonal read of sims as one batch should
// decode: one decode per distinct compact blob that some variant stores
// at two or more blocks, whichever variants and ranks hold it, and one
// per other block of each variant.
func diagonalReads(t *testing.T, sims ...*Simulator) (decodes int64) {
	t.Helper()
	shared := map[string]bool{}
	for _, s := range sims {
		uses := map[string]int{}
		for _, rs := range s.ranks {
			for b := range s.blocksPerRank() {
				blob, err := rs.store.Peek(b)
				if err != nil {
					t.Fatal(err)
				}
				if s.compact(blob) {
					uses[string(blob)]++
				} else {
					decodes++
				}
			}
		}
		for blob, n := range uses {
			if n == 1 {
				decodes++
			} else if !shared[blob] {
				shared[blob] = true
				decodes++
			}
		}
	}
	return decodes
}

// TestReadsDecodeEachDistinctBlobOnce: GHZ on 256 blocks is three
// distinct blobs, two of them on each rank of two, all compact. Norm,
// ProbabilityOne of an offset, a block and a rank qubit, AssertProduct
// of pairs across the segments, NewSampler and a measurement's
// probability read decode each distinct compact blob they touch once,
// not once per block, at any worker count; the measurement charges what
// it decodes, the same at every worker count; and Norm is the
// Sampler's TotalMass bit for bit. DiagonalExpectation — ⟨Z⟩ on each
// segment, a ZZ across segments, a MAXCUT sum — decodes each distinct
// compact blob of the state once, its one memo spanning the ranks. Read
// as one batch, three variants of that state decode the zero blob, which
// each stores at many blocks, once between them, and each its own two
// nonzero blocks.
func TestReadsDecodeEachDistinctBlobOnce(t *testing.T) {
	const n = 12 // 16-amplitude blocks: qubits 0..3 offsets, 4..11 blocks and ranks
	for _, ranks := range []int{1, 2} {
		var charged []int64
		for _, workers := range []int{1, 3} {
			s := newSim(t, n, ranks, 16, func(c *Config) { c.Workers = workers })
			if err := s.Run(quantum.GHZ(n)); err != nil {
				t.Fatal(err)
			}
			var dec atomic.Int64
			s.cfg.Lossless = countingCodec{Codec: s.cfg.Lossless, dec: &dec}
			read := func(what string, q int, fn func() (float64, error)) float64 {
				t.Helper()
				dec.Store(0)
				v, err := fn()
				if err != nil {
					t.Fatal(err)
				}
				if got, want := dec.Load(), distinctReads(t, s, q); got != want || want > 4 {
					t.Fatalf("ranks=%d workers=%d: %s decoded %d blobs, want %d (at most 4)", ranks, workers, what, got, want)
				}
				return v
			}
			norm := read("Norm", -1, s.Norm)
			qs := []int{0, 5}
			if ranks == 2 {
				qs = append(qs, n-1)
			}
			for _, q := range qs {
				read(fmt.Sprintf("ProbabilityOne(%d)", q), q, func() (float64, error) { return s.ProbabilityOne(q) })
			}
			// A GHZ pair sits at total-variation distance 1/2 from the
			// product of its marginals, inside a tolerance of 0.6.
			for _, pair := range [][2]int{{0, 1}, {0, 5}, {5, n - 1}, {n - 1, 2}} {
				read(fmt.Sprintf("AssertProduct%v", pair), -1, func() (float64, error) {
					return 0, s.AssertProduct(pair[0], pair[1], 0.6)
				})
			}
			total := read("NewSampler", -1, func() (float64, error) {
				sp, err := s.NewSampler(DefaultSampleCache)
				if err != nil {
					return 0, err
				}
				return sp.TotalMass(), nil
			})
			if math.Float64bits(norm) != math.Float64bits(total) {
				t.Fatalf("ranks=%d workers=%d: Norm %v, the Sampler's TotalMass %v", ranks, workers, norm, total)
			}
			ring := make([]quantum.ZZTerm, n)
			for i := range ring {
				ring[i] = quantum.ZZTerm{A: i, B: (i + 3) % n, W: -0.5}
			}
			variants := []*Simulator{s}
			for v := 1; v < 3; v++ {
				c, err := s.Clone(VariantSeed(1, v))
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				variants = append(variants, c)
			}
			for _, o := range []struct {
				what string
				zs   []quantum.ZTerm
				zzs  []quantum.ZZTerm
				want float64 // GHZ: ⟨Z⟩ = 0, ⟨ZZ⟩ = 1
			}{
				{"⟨Z0⟩", []quantum.ZTerm{{Q: 0, W: 1}}, nil, 0},
				{"⟨Z5⟩", []quantum.ZTerm{{Q: 5, W: 1}}, nil, 0},
				{"⟨Z11⟩", []quantum.ZTerm{{Q: n - 1, W: 1}}, nil, 0},
				{"⟨Z1 Z11⟩", nil, []quantum.ZZTerm{{A: 1, B: n - 1, W: 1}}, 1},
				{"MAXCUT", nil, ring, -0.5 * n},
			} {
				dec.Store(0)
				e, err := s.DiagonalExpectation(o.zs, o.zzs)
				if err != nil {
					t.Fatal(err)
				}
				want := diagonalReads(t, s)
				if got := dec.Load(); got != want || want > 3 {
					t.Fatalf("ranks=%d workers=%d: %s decoded %d blobs, want %d (at most 3)", ranks, workers, o.what, got, want)
				}
				if math.Abs(e-o.want) > 1e-12 {
					t.Fatalf("ranks=%d workers=%d: %s = %v, want %v", ranks, workers, o.what, e, o.want)
				}
				dec.Store(0)
				es, err := DiagonalExpectations(variants, o.zs, o.zzs)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := dec.Load(), diagonalReads(t, variants...); got != want {
					t.Fatalf("ranks=%d workers=%d: %s on %d variants decoded %d blobs, want %d", ranks, workers, o.what, len(variants), got, want)
				}
				for v, ev := range es {
					if math.Float64bits(ev) != math.Float64bits(e) {
						t.Fatalf("ranks=%d workers=%d: %s of variant %d is %v, alone %v", ranks, workers, o.what, v, ev, e)
					}
				}
			}

			// Measuring offset qubit 0 reads every block for its
			// probability, then collapses every block in a pass of one
			// gate, which decodes each (the cache is off).
			want := distinctReads(t, s, -1) + int64(ranks*s.blocksPerRank())
			before := s.Stats().DecompressCalls
			dec.Store(0)
			if err := s.Run(quantum.NewCircuit(n).Measure(0)); err != nil {
				t.Fatal(err)
			}
			got := s.Stats().DecompressCalls - before
			if got != want || dec.Load() != want {
				t.Fatalf("ranks=%d workers=%d: the measurement charged %d decodes and made %d, want %d", ranks, workers, got, dec.Load(), want)
			}
			charged = append(charged, got)
		}
		if charged[0] != charged[1] {
			t.Fatalf("ranks=%d: the measurement charged %d decodes at 1 worker, %d at 3", ranks, charged[0], charged[1])
		}
	}
}

// TestSamplerSteadyStateAllocs: a Sample call allocates its per-shot
// arrays and a fixed handful of headers — nothing per touched block,
// whether the call bypasses the LRU and decodes every block or hits in
// it. On raw blocks no codec's allocations are counted at all. On the
// default lossless codec's blocks the count is the same: a dense random
// state gives it stored blocks (and a few small-dictionary ones), a
// uniform superposition two-valued dictionary ones, and neither kind
// decodes with an allocation — as long as the codec's pooled scratch is
// there, which the race detector's sync.Pool does not promise, so those
// cases run without it only (CI has a step that does).
func TestSamplerSteadyStateAllocs(t *testing.T) {
	dense, uniform := quantum.RandomCircuit(8, 24, 7), quantum.HadamardAll(8)
	allocs := func(c *quantum.Circuit, raw bool, blockAmps, lines int) float64 {
		s := newSim(t, 8, 1, blockAmps, func(c *Config) { c.Workers, c.Uncompressed = 1, raw })
		if err := s.Run(c); err != nil {
			t.Fatal(err)
		}
		sp, err := s.NewSampler(lines)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(4))
		return testing.AllocsPerRun(10, func() {
			if _, err := sp.Sample(rng, 2048); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many, hot := allocs(dense, true, 128, 1), allocs(dense, true, 8, 1), allocs(dense, true, 8, 32)
	if few != many || few != hot || few > 8 {
		t.Fatalf("allocs per Sample on raw blocks: %v over 2 blocks, %v over 32, %v over 32 through the LRU; want one small constant", few, many, hot)
	}
	if codectest.RaceEnabled {
		return
	}
	stored, storedHot, dict := allocs(dense, false, 8, 1), allocs(dense, false, 8, 32), allocs(uniform, false, 8, 1)
	if stored != few || storedHot != few || dict != few {
		t.Fatalf("allocs per Sample on lossless blocks: %v over 32 stored, %v through the LRU, %v over 32 dictionary blocks; want the %v of raw blocks", stored, storedHot, dict, few)
	}
}

// BenchmarkSampler compares shot-based readout paths. The 20-qubit
// uniform superposition × 1 024 shots rows are the redundant regime:
// "fullscan" is the engine's original path (decompress the whole
// 2^20-amplitude vector, linear-scan it once per shot), "streaming"
// builds the block-level CDF and draws through it; the reported speedup
// is their ratio. "dense" is the other regime — QAOA-16q, every block
// distinct, 2^16 shots from a held Sampler — reporting the cost per shot
// and the allocations per call. Outcomes are checked bit-identical to
// the references first, so one iteration is also a correctness smoke.
func BenchmarkSampler(b *testing.B) {
	const qubits, shots = 20, 1024
	s, err := New(Config{Qubits: qubits, Ranks: 1, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	if err := s.Run(quantum.HadamardAll(qubits)); err != nil {
		b.Fatal(err)
	}
	streaming := func(tb testing.TB, s *Simulator, rng *rand.Rand, shots int) []uint64 {
		sp, err := s.NewSampler(DefaultSampleCache)
		if err != nil {
			tb.Fatal(err)
		}
		out, err := sp.Sample(rng, shots)
		if err != nil {
			tb.Fatal(err)
		}
		return out
	}
	equalShots(b, "streaming vs fullscan",
		streaming(b, s, rand.New(rand.NewSource(9)), shots), linearScanSample(b, s, rand.New(rand.NewSource(9)), shots))
	var baseline float64 // fullscan ns/op, set by the first sub-benchmark
	for _, mode := range []struct {
		name string
		draw func(testing.TB, *Simulator, *rand.Rand, int) []uint64
	}{{"fullscan", linearScanSample}, {"streaming", streaming}} {
		b.Run(mode.name, func(b *testing.B) {
			start := time.Now()
			for i := 0; i < b.N; i++ {
				mode.draw(b, s, rand.New(rand.NewSource(int64(i))), shots)
			}
			nsPerOp := float64(time.Since(start).Nanoseconds()) / float64(b.N)
			b.ReportMetric(nsPerOp, "draw-ns/op")
			if mode.name == "fullscan" {
				baseline = nsPerOp
			} else if baseline > 0 {
				b.ReportMetric(baseline/nsPerOp, "speedup-vs-fullscan")
			}
		})
	}

	b.Run("dense", func(b *testing.B) {
		const shots = 1 << 16
		s, err := New(Config{Qubits: 16, Ranks: 1, Seed: 3})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		if err := s.Run(quantum.QAOA(16, 2, 2020)); err != nil {
			b.Fatal(err)
		}
		sp, err := s.NewSampler(DefaultSampleCache)
		if err != nil {
			b.Fatal(err)
		}
		out, err := sp.Sample(rand.New(rand.NewSource(9)), shots)
		if err != nil {
			b.Fatal(err)
		}
		equalShots(b, "dense vs scanResolve", out, scanResolve(b, sp, rand.New(rand.NewSource(9)), shots))
		rng := rand.New(rand.NewSource(1))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sp.Sample(rng, shots); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/shots, "ns/shot")
	})
}
