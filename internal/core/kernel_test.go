package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"qcsim/internal/quantum"
)

// refGate and refApply are the kernel as it stood before gate classes:
// every gate a general complex 2×2, every offset tested against the
// controls. They are the definition of the bytes a pass must produce.
type refGate struct {
	tMask   int
	offCtrl uint64
	blkCtrl int
	u       quantum.Matrix2
}

func refApply(gates []refGate, tb int, x, y []float64, b int) {
	ba := len(x) / 2
	pb := b | tb
	block := func(g refGate, x []float64) {
		for base := 0; base < ba; base += g.tMask << 1 {
			for o := base; o < base+g.tMask; o++ {
				if uint64(o)&g.offCtrl != g.offCtrl {
					continue
				}
				i, j := o, o|g.tMask
				a0 := complex(x[2*i], x[2*i+1])
				a1 := complex(x[2*j], x[2*j+1])
				n0 := g.u[0][0]*a0 + g.u[0][1]*a1
				n1 := g.u[1][0]*a0 + g.u[1][1]*a1
				x[2*i], x[2*i+1] = real(n0), imag(n0)
				x[2*j], x[2*j+1] = real(n1), imag(n1)
			}
		}
	}
	for _, g := range gates {
		if g.tMask == 0 {
			if b&g.blkCtrl != g.blkCtrl {
				continue
			}
			for o := 0; o < ba; o++ {
				if uint64(o)&g.offCtrl != g.offCtrl {
					continue
				}
				re, im := 2*o, 2*o+1
				a0 := complex(x[re], x[im])
				a1 := complex(y[re], y[im])
				n0 := g.u[0][0]*a0 + g.u[0][1]*a1
				n1 := g.u[1][0]*a0 + g.u[1][1]*a1
				x[re], x[im] = real(n0), imag(n0)
				y[re], y[im] = real(n1), imag(n1)
			}
			continue
		}
		if b&g.blkCtrl == g.blkCtrl {
			block(g, x)
		}
		if tb != 0 && pb&g.blkCtrl == g.blkCtrl {
			block(g, y)
		}
	}
}

var negZero = math.Copysign(0, -1)

// kernelMatrices covers every class and the edges of classify: named
// diagonals, swaps and generals, fused products whose zeros come out of
// arithmetic, and -0 entries (which compare equal to 0 and so qualify).
var kernelMatrices = []struct {
	name  string
	u     quantum.Matrix2
	class gateClass
}{
	{"x", quantum.MatX, classSwap},
	{"y", quantum.MatY, classGeneral},
	{"z", quantum.MatZ, classDiagonal},
	{"h", quantum.MatH, classGeneral},
	{"s", quantum.MatS, classDiagonal},
	{"sdg", quantum.MatSdg, classDiagonal},
	{"t", quantum.MatT, classDiagonal},
	{"rz", quantum.RZ(0.7), classDiagonal},
	{"rx", quantum.RX(1.3), classGeneral},
	{"phase", quantum.Phase(-2.1), classDiagonal},
	{"fused s·t", quantum.MatS.Mul(quantum.MatT), classDiagonal},
	{"fused h·t", quantum.MatH.Mul(quantum.MatT), classGeneral},
	{"fused x·z", quantum.MatX.Mul(quantum.MatZ), classGeneral},
	{"diagonal, -0 off it", quantum.Matrix2{
		{complex(0.6, -0.8), complex(negZero, negZero)},
		{complex(0, negZero), complex(negZero, 1)}}, classDiagonal},
	{"swap, -0 in it", quantum.Matrix2{
		{complex(negZero, 0), complex(1, negZero)},
		{complex(1, 0), complex(negZero, negZero)}}, classSwap},
}

// TestKernelMatchesGeneral2x2Bits pins the one property of the class
// kernels nothing else in the repository sees: that a diagonal or swap
// short form produces the general 2×2's float64 BITS, signed zeros
// included. (-1+0i)·(0+0i) is (-0, +0), and the 2×2's "+ 0·a1" term
// turns it back into +0; a short form that drops the term keeps -0, and
// a raw or lossless blob differs by that bit. Removing the zero
// fallback from any class loop in kernel passes every other test in the
// repository — conformance, the bit-identity suites, qcbench -diff —
// because they compare the engine against itself or within a tolerance;
// this test compares it against the old loop.
func TestKernelMatchesGeneral2x2Bits(t *testing.T) {
	const (
		offsetBits = 5
		ba         = 1 << offsetBits
		tb         = 1 // the pass's block-segment pair stride
		blkBit     = 2 // a block control outside the pair
	)
	rng := rand.New(rand.NewSource(17))
	component := func() float64 {
		switch rng.Intn(6) {
		case 0:
			return 0
		case 1:
			return negZero
		}
		return rng.NormFloat64()
	}
	// randGate draws a gate on the given target (offsetBits = the pair)
	// with nctrl offset controls; blk picks its block control.
	randGate := func(u quantum.Matrix2, target, nctrl, blk int) refGate {
		g := refGate{u: u, blkCtrl: blk}
		if target < offsetBits {
			g.tMask = 1 << uint(target)
		}
		for g.offCtrl = 0; nctrl > 0; {
			c := uint64(1) << uint(rng.Intn(offsetBits))
			if c != uint64(g.tMask) && g.offCtrl&c == 0 {
				g.offCtrl |= c
				nctrl--
			}
		}
		return g
	}
	randBlk := func(target int) int {
		// A pair gate's controls never include its own target's bit; an
		// offset-target gate may be controlled on the pair qubit.
		opts := []int{0, blkBit}
		if target < offsetBits {
			opts = append(opts, tb, tb|blkBit)
		}
		return opts[rng.Intn(len(opts))]
	}
	passes := 0
	for _, m := range kernelMatrices {
		if got := classify(m.u); got != m.class {
			t.Errorf("%s: classified %d, want %d", m.name, got, m.class)
		}
		for target := 0; target <= offsetBits; target++ {
			for nctrl := 0; nctrl <= 2; nctrl++ {
				for _, blk := range []int{0, blkBit} {
					for k := 1; k <= 4; k++ {
						// The named gate first, then k-1 random ones, so every
						// class also runs on another class's output.
						ref := []refGate{randGate(m.u, target, nctrl, blk)}
						for len(ref) < k {
							mm := kernelMatrices[rng.Intn(len(kernelMatrices))]
							tg := rng.Intn(offsetBits + 1)
							ref = append(ref, randGate(mm.u, tg, rng.Intn(3), randBlk(tg)))
						}
						p := &blockPass{tb: tb}
						for _, g := range ref {
							p.gates = append(p.gates, newPassGate(g.u, g.tMask, g.offCtrl, g.blkCtrl))
						}
						for _, b := range []int{0, blkBit} {
							x, y := make([]float64, 2*ba), make([]float64, 2*ba)
							for i := range x {
								x[i], y[i] = component(), component()
							}
							wx, wy := append([]float64(nil), x...), append([]float64(nil), y...)
							p.apply(x, y, b)
							refApply(ref, tb, wx, wy, b)
							passes++
							for i := range x {
								if math.Float64bits(x[i]) != math.Float64bits(wx[i]) || math.Float64bits(y[i]) != math.Float64bits(wy[i]) {
									t.Fatalf("%s target %d, %d offset controls, block control %d, %d gates, block %d: component %d is (x %x, y %x), the general 2×2 gives (x %x, y %x)\ngates %+v",
										m.name, target, nctrl, blk, k, b, i,
										math.Float64bits(x[i]), math.Float64bits(y[i]), math.Float64bits(wx[i]), math.Float64bits(wy[i]), ref)
								}
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d passes compared bit for bit", passes)
}

// TestRunLenWalksSupersets: the stride walk visits exactly the offsets
// the old per-amplitude test accepted, in increasing order.
func TestRunLenWalksSupersets(t *testing.T) {
	const n = 64
	for mask := 0; mask < n; mask++ {
		var got []int
		l := runLen(mask, n)
		for v := mask; v < n; v = (v + l) | mask {
			for o := v; o < v+l; o++ {
				got = append(got, o)
			}
		}
		var want []int
		for o := 0; o < n; o++ {
			if o&mask == mask {
				want = append(want, o)
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("mask %#b: walked %v, want %v", mask, got, want)
		}
	}
}

// BenchmarkKernel times one gate over a block of the default size (2^12
// amplitudes), or a block pair, per class and loop shape, in ns per
// amplitude updated: t=0 is the shortest run the stride walk makes (one
// pair), t=mid the common case, ctrl=1 a controlled gate (half the pairs
// fire), pair the block-segment target across two blocks. Dense random
// input, so the zero fallback never fires — the regime of every workload
// but Grover's.
func BenchmarkKernel(b *testing.B) {
	const offsetBits = 12 // the engine's default block
	const ba = 1 << offsetBits
	classes := []struct {
		name string
		u    quantum.Matrix2
	}{{"general", quantum.MatH}, {"diagonal", quantum.RZ(0.7)}, {"swap", quantum.MatX}}
	shapes := []struct {
		name    string
		tMask   int
		offCtrl uint64
	}{
		{"t=0", 1, 0},
		{"t=mid", 1 << (offsetBits / 2), 0},
		{"ctrl=1", 1 << (offsetBits / 2), 1 << 3},
		{"pair", 0, 0},
	}
	rng := rand.New(rand.NewSource(1))
	x, y := make([]float64, 2*ba), make([]float64, 2*ba)
	for _, c := range classes {
		for _, sh := range shapes {
			b.Run(c.name+"/"+sh.name, func(b *testing.B) {
				p := &blockPass{gates: []passGate{newPassGate(c.u, sh.tMask, sh.offCtrl, 0)}}
				amps := ba
				if sh.tMask == 0 {
					p.tb = 1
					amps = 2 * ba
				}
				if sh.offCtrl != 0 {
					amps /= 2
				}
				for i := range x {
					x[i], y[i] = rng.NormFloat64(), rng.NormFloat64()
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p.apply(x, y, 0)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(amps), "ns/amp")
			})
		}
	}
}

// benchVariants is a gradient's geometry — 13 qubits in two 4096-amplitude
// blocks, one pair — holding K clones of a dense QAOA state.
func benchVariants(b *testing.B, k, workers int) []*Simulator {
	b.Helper()
	base, err := New(Config{Qubits: 13, Seed: 1, Workers: workers})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { base.Close() })
	if err := base.Run(quantum.QAOA(13, 1, 1)); err != nil {
		b.Fatal(err)
	}
	sims := []*Simulator{base}
	for v := 1; v < k; v++ {
		clone, err := base.Clone(VariantSeed(1, v))
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { clone.Close() })
		sims = append(sims, clone)
	}
	return sims
}

// BenchmarkLockstepPass is one pair sweep over K variants that share
// nothing (each its own rotation angle): the (block, variant) fan-out,
// codec round trip included.
func BenchmarkLockstepPass(b *testing.B) {
	for _, k := range []int{1, 8, 79} {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("K=%d/workers=%d", k, workers), func(b *testing.B) {
				sims := benchVariants(b, k, workers)
				circuits := make([]*quantum.Circuit, k)
				for v := range circuits {
					circuits[v] = quantum.NewCircuit(13).RX(0, 0.1+0.01*float64(v)).H(12)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := RunBatch(sims, circuits, RunControl{}); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(2*k), "ns/variant-block")
			})
		}
	}
}

// BenchmarkDiagonalExpectation is a gradient's readout: a 26-edge MAXCUT
// observable on K 13-qubit states.
func BenchmarkDiagonalExpectation(b *testing.B) {
	var zzs []ZZTerm
	for _, e := range quantum.RandomRegularGraph(13, 4, 1) {
		zzs = append(zzs, ZZTerm{e.U, e.V, -0.5})
	}
	for _, k := range []int{1, 79} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			sims := benchVariants(b, k, 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := DiagonalExpectations(sims, nil, zzs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(k<<13*len(zzs)), "ns/amp-term")
		})
	}
}

// TestRawBlockCostsOneAllocation: with compression off a pass's codec
// stage is two copies and one allocation — the blob — per block.
func TestRawBlockCostsOneAllocation(t *testing.T) {
	s := newSim(t, 8, 1, 64, func(c *Config) { c.Uncompressed = true })
	x := make([]float64, 2*64)
	var st Stats
	var blob []byte
	if n := testing.AllocsPerRun(100, func() { blob, _ = s.compressBlock(0, x, &st) }); n != 1 {
		t.Errorf("compressBlock: %v allocations, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { s.decompressBlock(blob, x, &st) }); n != 0 {
		t.Errorf("decompressBlock: %v allocations, want 0", n)
	}
	if len(rawPrefix) != 1 || cap(rawPrefix) != 1 || rawPrefix[0] != tagRaw {
		t.Fatalf("rawPrefix is %v with room for %d: appending to it must always reallocate", rawPrefix, cap(rawPrefix))
	}
}
