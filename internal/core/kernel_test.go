package core

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"qcsim/internal/compress/codectest"
	"qcsim/internal/quantum"
)

// refGate and refApply are the kernel as it stood before gate classes
// and groups: every gate a general complex 2×2 applied gate at a time,
// every offset tested against the controls, blocks named by their
// index. With plusZero set every zero a gate writes is +0 (canon): the
// +0 rule a diagonal, swap or real-imaginary gate's loop keeps. They
// are the definition of the bytes a pass must produce.
type refGate struct {
	tMask    int // the target's bit within a block, 0 for a block target
	stride   int // the block target's block-index bit, 0 for an offset target
	offCtrl  uint64
	blkCtrl  int
	u        quantum.Matrix2
	plusZero bool
}

// full is the general 2×2 on one pair (paper Eq. 6): the definition of
// every class's result, up to the signs of zeros.
func full(u quantum.Matrix2, a0, a1 complex128) (n0, n1 complex128) {
	return quantum.CMul(u[0][0], a0) + quantum.CMul(u[0][1], a1), quantum.CMul(u[1][0], a0) + quantum.CMul(u[1][1], a1)
}

// canon is x with a zero of either sign made +0, written without the
// arithmetic the kernels use for it.
func canon(x float64) float64 {
	if x == 0 {
		return 0
	}
	return x
}

// refApply runs gates in order on blocks, a group of blocks by index.
func refApply(gates []refGate, blocks map[int][]float64) {
	pair := func(g refGate, x, y []float64, i, j int) {
		n0, n1 := full(g.u, complex(x[2*i], x[2*i+1]), complex(y[2*j], y[2*j+1]))
		x[2*i], x[2*i+1] = real(n0), imag(n0)
		y[2*j], y[2*j+1] = real(n1), imag(n1)
		if g.plusZero {
			x[2*i], x[2*i+1] = canon(x[2*i]), canon(x[2*i+1])
			y[2*j], y[2*j+1] = canon(y[2*j]), canon(y[2*j+1])
		}
	}
	for _, g := range gates {
		for idx, x := range blocks {
			if idx&g.blkCtrl != g.blkCtrl || idx&g.stride != 0 {
				continue
			}
			for o := 0; o < len(x)/2; o++ {
				if uint64(o)&g.offCtrl != g.offCtrl {
					continue
				}
				switch {
				case g.stride != 0:
					pair(g, x, blocks[idx|g.stride], o, o)
				case o&g.tMask == 0:
					pair(g, x, x, o, o|g.tMask)
				}
			}
		}
	}
}

var negZero = math.Copysign(0, -1)

// cpuVector is whether this CPU and build have the vector kernels:
// vectorKernels as the package set it, before any test changed it.
var cpuVector = vectorKernels

// eachKernel runs f twice, as subtests: impl=go with the vector kernels
// off, impl=vec with them on, which skips where cpuVector is false.
func eachKernel[T interface {
	Run(string, func(T)) bool
	Skip(...any)
}](tb T, f func(T)) {
	defer func(on bool) { vectorKernels = on }(vectorKernels)
	for _, impl := range []string{"go", "vec"} {
		tb.Run("impl="+impl, func(tb T) {
			if impl == "vec" && !cpuVector {
				tb.Skip("no vector kernels: the CPU lacks AVX2, or the build is not amd64 or has the purego tag")
			}
			vectorKernels = impl == "vec"
			f(tb)
		})
	}
}

// kernelMatrices covers every class and the edges of classify: named
// diagonals, swaps, real-imaginaries and generals (a real matrix is
// general), fused products whose zeros come out of arithmetic, and -0
// entries (which compare equal to 0 and so qualify).
var kernelMatrices = []struct {
	name  string
	u     quantum.Matrix2
	class gateClass
}{
	{"x", quantum.MatX, classSwap},
	{"y", quantum.MatY, classRealImag},
	{"z", quantum.MatZ, classDiagonal},
	{"h", quantum.MatH, classGeneral},
	{"s", quantum.MatS, classDiagonal},
	{"sdg", quantum.MatSdg, classDiagonal},
	{"t", quantum.MatT, classDiagonal},
	{"rz", quantum.RZ(0.7), classDiagonal},
	{"rx", quantum.RX(1.3), classRealImag},
	{"ry", quantum.RY(-0.9), classGeneral},
	{"phase", quantum.Phase(-2.1), classDiagonal},
	{"fused s·t", quantum.MatS.Mul(quantum.MatT), classDiagonal},
	{"fused h·t", quantum.MatH.Mul(quantum.MatT), classGeneral},
	{"fused x·z", quantum.MatX.Mul(quantum.MatZ), classGeneral},
	{"fused rx·rz, every entry complex", quantum.RX(1.1).Mul(quantum.RZ(0.4)), classGeneral},
	{"diagonal, -0 off it", quantum.Matrix2{
		{complex(0.6, -0.8), complex(negZero, negZero)},
		{complex(0, negZero), complex(negZero, 1)}}, classDiagonal},
	{"swap, -0 in it", quantum.Matrix2{
		{complex(negZero, 0), complex(1, negZero)},
		{complex(1, 0), complex(negZero, negZero)}}, classSwap},
	{"real, -0 imaginary parts", quantum.Matrix2{
		{complex(0.6, negZero), complex(-0.8, 0)},
		{complex(0.8, negZero), complex(0.6, negZero)}}, classGeneral},
	{"rx-shaped, -0 real parts off the diagonal", quantum.Matrix2{
		{complex(0.6, negZero), complex(negZero, -0.8)},
		{complex(0, 0.8), complex(-0.6, 0)}}, classRealImag},
}

// TestKernelMatchesGeneral2x2Bits pins the class kernels' bits (with
// TestKernelNegZeroRule): a general gate produces the general 2×2's
// float64 BITS, and a diagonal, swap or real-imaginary short form the
// 2×2's bits with every zero +0 — canon(full), the +0 rule. (-1+0i)·
// (0+0i) is (-0, +0); a short form that drops its "+ 0" keeps the -0,
// and a raw or lossless blob differs by that bit. The bit-identity
// suites compare the engine against itself or within a tolerance and
// cannot see it; of the rest only TestGroverCacheKeepsItsHits does, by
// the cache hits and codec calls the -0s cost. This test compares the
// kernel against the old loop.
//
// It does so on groups of one, two, four and eight blocks: block-target
// gates on each group stride, controlled on the other group qubits and
// on a block qubit outside the group, so it also pins which members
// apply pairs (and fired counts) for every group shape.
func TestKernelMatchesGeneral2x2Bits(t *testing.T) { eachKernel(t, kernelMatchesGeneral2x2Bits) }

func kernelMatchesGeneral2x2Bits(t *testing.T) {
	const (
		offsetBits = 5
		ba         = 1 << offsetBits
		blkBit     = 8 // a block control outside every group
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
	// randGate draws a gate with target tMask (an offset bit) or stride
	// (a block bit) and nctrl offset controls.
	randGate := func(u quantum.Matrix2, class gateClass, tMask, stride, nctrl, blk int) refGate {
		g := refGate{u: u, tMask: tMask, stride: stride, blkCtrl: blk, plusZero: class != classGeneral}
		for nctrl > 0 {
			c := uint64(1) << uint(rng.Intn(offsetBits))
			if c != uint64(tMask) && g.offCtrl&c == 0 {
				g.offCtrl |= c
				nctrl--
			}
		}
		return g
	}
	// subsets lists every block control a gate may carry: any bits of
	// the group and blkBit except its own stride.
	subsets := func(span, stride int) []int {
		free := (span | blkBit) &^ stride
		var out []int
		for c := free; ; c = (c - 1) & free {
			out = append(out, c)
			if c == 0 {
				return out
			}
		}
	}
	type target struct{ tMask, stride int }
	passes := 0
	for _, m := range kernelMatrices {
		if got := classify(m.u); got != m.class {
			t.Errorf("%s: classified %d, want %d", m.name, got, m.class)
		}
		for _, span := range []int{0, 1, 2, 3, 7} {
			var targets []target
			for q := 0; q < offsetBits; q++ {
				targets = append(targets, target{tMask: 1 << q})
			}
			for st := 1; st <= span; st <<= 1 {
				if span&st != 0 {
					targets = append(targets, target{stride: st})
				}
			}
			randTarget := func() target { return targets[rng.Intn(len(targets))] }
			for _, tg := range targets {
				for _, blk := range subsets(span, tg.stride) {
					for nctrl := 0; nctrl <= 2; nctrl++ {
						for k := 1; k <= 4; k++ {
							// The named gate first, then k-1 random ones, so every
							// class also runs on another class's output.
							ref := []refGate{randGate(m.u, m.class, tg.tMask, tg.stride, nctrl, blk)}
							for len(ref) < k {
								mm := kernelMatrices[rng.Intn(len(kernelMatrices))]
								rt := randTarget()
								opts := subsets(span, rt.stride)
								ref = append(ref, randGate(mm.u, mm.class, rt.tMask, rt.stride, rng.Intn(3), opts[rng.Intn(len(opts))]))
							}
							var pgs []passGate
							ctrlBits := 0
							for _, g := range ref {
								pgs = append(pgs, newPassGate(g.u, g.tMask, g.stride, g.offCtrl, g.blkCtrl))
								ctrlBits |= g.blkCtrl
							}
							p := newBlockPass(passKey{}, pgs, span, ctrlBits)
							for _, b := range []int{0, blkBit} {
								var bufs [groupSize][]float64
								want := map[int][]float64{}
								fired, _ := p.reads(b)
								for mb := 0; mb < p.size; mb++ {
									bufs[mb] = make([]float64, 2*ba)
									for i := range bufs[mb] {
										bufs[mb][i] = component()
									}
									want[b|p.sub[mb]] = append([]float64(nil), bufs[mb]...)
									n := 0
									for _, g := range ref {
										if (b|p.sub[mb])&g.blkCtrl == g.blkCtrl {
											n++
										}
									}
									if fired[mb] != n {
										t.Fatalf("span %d block %d member %d: fired %d, %d gates' controls hold", span, b, mb, fired[mb], n)
									}
								}
								if len(want) != p.size {
									t.Fatalf("span %d: members %v name %d distinct blocks", span, p.sub, len(want))
								}
								p.apply(bufs[:], b)
								refApply(ref, want)
								passes++
								for mb := 0; mb < p.size; mb++ {
									w := want[b|p.sub[mb]]
									for i := range w {
										if math.Float64bits(bufs[mb][i]) != math.Float64bits(w[i]) {
											t.Fatalf("%s (tMask %d, stride %d), %d offset controls, block control %d, %d gates, group span %d at block %d: member %d component %d is %x, the reference gives %x\ngates %+v",
												m.name, tg.tMask, tg.stride, nctrl, blk, k, span, b, mb, i,
												math.Float64bits(bufs[mb][i]), math.Float64bits(w[i]), ref)
										}
									}
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

// TestKernelNegZeroRule holds every kernelMatrices entry's class loop,
// bit for bit, to full — a general gate — or to canon(full) — a
// diagonal, swap or real-imaginary short form, the +0 rule — on every
// pair whose four components come from {+0, -0, ±1, ±the smallest
// subnormal, ±huge}: the exhaustive side of the rule. The subnormals
// make products that underflow to a signed zero, so a short result can
// be -0 where neither input is; huge is large enough to matter and
// small enough that no entry's products overflow (the rule is for
// finite results). Each pair runs as the pair (0, 1) of a two-amplitude
// block, and as either pair of a four-amplitude block under a target on
// bit 1 — (0, 2) and (1, 3), the two pairs of one vector — with the
// other pair dense, and under a qubit-0 control, so each of a vector
// loop's three layouts adds its + 0 to every lane.
func TestKernelNegZeroRule(t *testing.T) {
	eachKernel(t, classLoopsNegZeroRule)
	t.Run("zz-unit", func(t *testing.T) { eachKernel(t, zzUnitNegZeroRule) })
}

func classLoopsNegZeroRule(t *testing.T) {
	tiny, huge := math.SmallestNonzeroFloat64, math.MaxFloat64/4
	values := []float64{0, negZero, 1, -1, tiny, -tiny, huge, -huge}
	dense := [4]float64{0.3, -1.7, 2.9, 0.45} // the other pair: x0, y0, x1, y1
	for _, m := range kernelMatrices {
		g := newPassGate(m.u, 1, 0, 0, 0)
		g2 := newPassGate(m.u, 2, 0, 0, 0)
		g4 := newPassGate(m.u, 4, 0, 1, 0)
		// check runs g on block x, whose amplitudes lo and lo+t form the
		// pair under test, and holds every component to the reference's.
		check := func(g *passGate, x []float64, lo int) {
			want := slices.Clone(x)
			refApply([]refGate{{tMask: g.tMask, offCtrl: uint64(g.mask &^ g.tMask), u: m.u, plusZero: m.class != classGeneral}},
				map[int][]float64{0: want})
			in := slices.Clone(x)
			g.kernel(x, x)
			for i := range x {
				if math.Float64bits(x[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s, target bit %d, pair at %d, on block %v: component %d is %v (%#x), the reference gives %v (%#x)",
						m.name, g.tMask, lo, in, i, x[i], math.Float64bits(x[i]), want[i], math.Float64bits(want[i]))
				}
			}
		}
		for _, ar0 := range values {
			for _, ai0 := range values {
				for _, ar1 := range values {
					for _, ai1 := range values {
						check(&g, []float64{ar0, ai0, ar1, ai1}, 0)
						for lo := range 2 {
							x := make([]float64, 8)
							copy(x[2*lo:], []float64{ar0, ai0})
							copy(x[2*(lo+2):], []float64{ar1, ai1})
							copy(x[2*(1-lo):], dense[:2])
							copy(x[2*(3-lo):], dense[2:])
							check(&g2, x, lo)
						}
						for lo := 1; lo < 4; lo += 2 {
							x := make([]float64, 16)
							copy(x[2*lo:], []float64{ar0, ai0})
							copy(x[2*(lo+4):], []float64{ar1, ai1})
							copy(x[2*(4-lo):], dense[:2])
							copy(x[2*(8-lo):], dense[2:])
							check(&g4, x, lo)
						}
					}
				}
			}
		}
	}
}

// zzUnitNegZeroRule is TestKernelNegZeroRule's ZZ unit: it holds the
// unit's kernel to the ±0 rule against the three gates it stands for,
// run gate at a time as general 2×2s: CNOT(u,v)·D(v)·CNOT(u,v) on every
// diagonal D and both swaps of kernelMatrices and every pair of
// components from TestKernelNegZeroRule's value set, with u and v placed
// as each case says — v a block bit, or an offset bit with u an offset
// or a block bit, in runs shorter than unitRun and as long. Every
// amplitude whose z_v is 0 holds the pair's first component, every
// other the second, so the pair sits at z_u = 0 (the CNOTs idle) and
// at z_u = 1. Where the unit's component is nonzero the bits must be
// equal; where it is zero the reference's must be zero too, of either
// sign.
func zzUnitNegZeroRule(t *testing.T) {
	tiny, huge := math.SmallestNonzeroFloat64, math.MaxFloat64/4
	values := []float64{0, negZero, 1, -1, tiny, -tiny, huge, -huge}
	for _, tc := range []struct {
		name       string
		uOff, uBlk int // u's bit in the offset or in the block index
		vOff, vBlk int // v's
		amps       int // a block's amplitudes
	}{
		{"u offset, v block", 1, 0, 0, 1, 2},
		{"u and v offset", 1, 0, 2, 0, 4},
		{"u block, v offset", 0, 1, 1, 0, 2},
		{"u and v offset, long runs", unitRun, 0, 2 * unitRun, 0, 4 * unitRun},
	} {
		nblocks := 1 + (tc.uBlk|tc.vBlk)&1
		var flips int
		for _, d := range kernelMatrices {
			if d.class != classDiagonal {
				continue
			}
			for _, x := range kernelMatrices {
				if x.class != classSwap {
					continue
				}
				cx := refGate{tMask: tc.vOff, stride: tc.vBlk, offCtrl: uint64(tc.uOff), blkCtrl: tc.uBlk, u: x.u}
				ref := []refGate{cx, {tMask: tc.vOff, stride: tc.vBlk, u: d.u}, cx}
				unit := passGate{class: classUnit, u: d.u, tMask: tc.uOff | tc.vOff, par: tc.uBlk | tc.vBlk}
				p := newBlockPass(passKey{}, []passGate{unit}, 0, unit.par)
				for _, ar0 := range values {
					for _, ai0 := range values {
						for _, ar1 := range values {
							for _, ai1 := range values {
								blocks := map[int][]float64{}
								got := make([][]float64, nblocks)
								for b := range nblocks {
									x := make([]float64, 2*tc.amps)
									for o := range tc.amps {
										x[2*o], x[2*o+1] = ar0, ai0
										if o&tc.vOff != 0 || b&tc.vBlk != 0 {
											x[2*o], x[2*o+1] = ar1, ai1
										}
									}
									blocks[b], got[b] = x, slices.Clone(x)
								}
								refApply(ref, blocks)
								for b := range got {
									p.apply(got[b:b+1], b)
								}
								for b, g := range got {
									for i, w := range blocks[b] {
										switch {
										case math.Float64bits(g[i]) == math.Float64bits(w):
										case g[i] == 0 && w == 0:
											flips++
										default:
											t.Fatalf("%s: %s between %s on (%v, %v), (%v, %v): block %d component %d is %v (%#x), gate at a time %v (%#x)",
												tc.name, d.name, x.name, ar0, ai0, ar1, ai1, b, i, g[i], math.Float64bits(g[i]), w, math.Float64bits(w))
										}
									}
								}
							}
						}
					}
				}
			}
		}
		if flips == 0 {
			t.Fatalf("%s: no zero changed sign: the value set no longer reaches the ±0 rule", tc.name)
		}
	}
}

// TestUnitProjectsOnItsParity holds a ZZ unit with a zero entry —
// Circuit.Validate checks no unitarity, so CNOT·diag(0, c)·CNOT is a
// legal unit, and a collapse is one — to the projector gate at a time,
// with its parity on two offset bits, on u and v both offset bits, in
// runs shorter than unitRun and as long, and on one offset bit and a
// block bit. On a dense block an amplitude the projector keeps must
// carry the reference's bits, and one it drops must be exact +0 where
// the reference is a zero of either sign.
func TestUnitProjectsOnItsParity(t *testing.T) { eachKernel(t, unitProjectsOnItsParity) }

func unitProjectsOnItsParity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, tc := range []struct {
		name       string
		uOff, uBlk int
		vOff       int
		amps       int
	}{
		{"u and v offset", 1, 0, 4, 8},
		{"u and v offset, long runs", unitRun, 0, 2 * unitRun, 4 * unitRun},
		{"u block, v offset", 0, 1, 2, 4},
	} {
		for _, d := range []quantum.Matrix2{{{0, 0}, {0, complex(0.6, -0.8)}}, {{1i, 0}, {0, 0}}} {
			cx := refGate{tMask: tc.vOff, offCtrl: uint64(tc.uOff), blkCtrl: tc.uBlk, u: quantum.MatX}
			ref := []refGate{cx, {tMask: tc.vOff, u: d}, cx}
			unit := passGate{class: classUnit, u: d, tMask: tc.uOff | tc.vOff, par: tc.uBlk}
			p := newBlockPass(passKey{}, []passGate{unit}, 0, unit.par)
			blocks := map[int][]float64{}
			got := make([][]float64, 1+tc.uBlk)
			for b := range got {
				x := make([]float64, 2*tc.amps)
				for i := range x {
					x[i] = rng.NormFloat64()
				}
				blocks[b], got[b] = x, slices.Clone(x)
			}
			refApply(ref, blocks)
			kept := 0
			for b := range got {
				p.apply(got[b:b+1], b)
				for i, w := range blocks[b] {
					g := got[b][i]
					switch {
					case w != 0 && math.Float64bits(g) == math.Float64bits(w):
						kept++
					case w == 0 && math.Float64bits(g) == 0:
					default:
						t.Fatalf("%s, d %v: block %d component %d is %v (%#x), gate at a time %v (%#x)", tc.name, d, b, i, g, math.Float64bits(g), w, math.Float64bits(w))
					}
				}
			}
			if total := len(got) * 2 * tc.amps; kept != total/2 {
				t.Fatalf("%s, d %v: kept %d of %d components, want half", tc.name, d, kept, total)
			}
		}
	}
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

// fuzzValue maps a byte to a matrix or amplitude component: the first
// eleven are ±0, ±the smallest subnormal, ±huge (products overflow),
// ±Inf, NaN and ±1, the rest normals.
func fuzzValue(b byte) float64 {
	special := []float64{0, negZero, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.MaxFloat64 / 3, -math.MaxFloat64 / 3, math.Inf(1), math.Inf(-1), math.NaN(), 1, -1}
	if int(b) < len(special) {
		return special[b]
	}
	return float64(int8(b)) / 7
}

// FuzzKernelVectorMatchesGo holds the vector loops to the Go loops bit
// for bit on one gate of each vectorised class — general (class 0),
// real-imaginary (1), a ZZ unit (2), diagonal (3) and swap (4) — over a
// pair of 32-amplitude blocks. target picks the target bit (0 for a
// block target, then bits 0 to 4: the interleaved pair, runs of one, two
// and more pairs; for a unit, u's and v's bits), ctrl adds offset
// controls, bit 0 included (runs of one pair, packed two to a vector),
// and data's bytes are the matrix entries, then the amplitudes
// (fuzzValue, repeating). Where both results are NaN the payload may
// differ.
func FuzzKernelVectorMatchesGo(f *testing.F) {
	if !cpuVector {
		f.Skip("no vector kernels: the CPU lacks AVX2, or the build is not amd64 or has the purego tag")
	}
	f.Add(uint8(0), uint8(1), uint8(0), []byte{20, 30, 40, 50, 60, 70, 80, 90, 100, 200, 13, 14})
	f.Add(uint8(0), uint8(0), uint8(1), []byte{20, 0, 40, 1, 60, 6, 80, 8, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add(uint8(0), uint8(3), uint8(0), []byte{20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120, 130, 140, 150})
	f.Add(uint8(1), uint8(1), uint8(0), []byte{20, 1, 0, 30, 1, 40, 50, 0, 0, 1, 2, 3, 9, 10, 0, 1, 6})
	f.Add(uint8(1), uint8(3), uint8(9), []byte{20, 1, 0, 30, 1, 40, 50, 0, 0, 0, 1, 1, 4, 5, 6, 7, 8, 9})
	f.Add(uint8(1), uint8(4), uint8(0), []byte{9, 0, 1, 9, 0, 9, 9, 1, 0, 1, 0, 1, 0, 1, 200, 2, 3})
	f.Add(uint8(2), uint8(0x21), uint8(1), []byte{20, 30, 40, 50, 60, 70, 80, 90, 7, 6, 8})
	f.Add(uint8(2), uint8(0x53), uint8(0), []byte{20, 30, 0, 0, 0, 0, 80, 90, 0, 1, 2, 3})
	f.Add(uint8(2), uint8(0x22), uint8(0), []byte{20, 30, 40, 50, 60, 70, 80, 90, 7, 6, 8})
	f.Add(uint8(3), uint8(3), uint8(0), []byte{20, 1, 0, 0, 1, 0, 50, 1, 0, 1, 2, 3, 0, 9, 1, 0, 4, 5, 6})
	f.Add(uint8(3), uint8(1), uint8(8), []byte{9, 0, 1, 1, 0, 1, 30, 1, 1, 0, 2, 1, 0, 0, 3, 1, 4})
	f.Add(uint8(3), uint8(4), uint8(1), []byte{10, 1, 0, 0, 1, 1, 10, 0, 0, 1, 0, 1, 2, 3, 9, 1, 0})
	f.Add(uint8(3), uint8(0), uint8(5), []byte{20, 30, 0, 0, 0, 0, 40, 1, 1, 0, 1, 0, 7, 2, 3, 1})
	f.Add(uint8(4), uint8(2), uint8(0), []byte{0, 1, 0, 1, 0, 1, 1, 0, 0, 1, 1, 0, 20, 0, 3, 1, 0, 9})
	f.Add(uint8(4), uint8(1), uint8(4), []byte{1, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 1, 5, 1, 0, 6, 7})
	f.Add(uint8(4), uint8(5), uint8(15), []byte{0, 0, 0, 1, 0, 0, 1, 1, 0, 1, 8, 0, 1, 0, 2})
	f.Add(uint8(0), uint8(4), uint8(1), []byte{20, 30, 40, 50, 60, 70, 80, 90, 0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(uint8(1), uint8(2), uint8(1), []byte{20, 1, 0, 30, 1, 40, 50, 0, 1, 0, 1, 0, 9, 2, 0, 1})
	// Blocks of mostly ±0 for each short class, in each of the three
	// vector layouts (a block target's runs, the target on qubit 0, runs
	// of one pair under a qubit-0 control): the products are signed
	// zeros, and every lane's + 0 decides their sign.
	for _, c := range []struct {
		class uint8
		u     []byte
	}{
		{1, []byte{200, 1, 0, 20, 1, 150, 30, 0}},
		{3, []byte{200, 20, 0, 1, 1, 0, 30, 150}},
		{4, []byte{1, 0, 0, 1, 0, 1, 1, 0}},
	} {
		for _, tc := range [][2]uint8{{0, 0}, {1, 0}, {3, 1}} {
			f.Add(c.class, tc[0], tc[1], append(slices.Clone(c.u), 0, 1, 1, 0, 0, 0, 1, 1, 0, 1, 0, 200, 1, 0, 0, 1, 1))
		}
	}
	f.Fuzz(func(t *testing.T, class, target, ctrl uint8, data []byte) {
		const ba = 32
		if len(data) == 0 {
			return
		}
		at := func(i int) float64 { return fuzzValue(data[i%len(data)]) }
		var c [8]float64
		for i := range c {
			c[i] = at(i)
		}
		blocks := [2][]float64{make([]float64, 2*ba), make([]float64, 2*ba)}
		for i := range 2 * 2 * ba {
			blocks[i/(2*ba)][i%(2*ba)] = at(8 + i)
		}
		var run func(x [2][]float64)
		switch class % 5 {
		case 0, 1, 3, 4:
			u := quantum.Matrix2{{complex(c[0], c[1]), complex(c[2], c[3])}, {complex(c[4], c[5]), complex(c[6], c[7])}}
			// Zeros and ones where the class needs them, zeros signed as c's.
			z := func(x float64) float64 { return math.Copysign(0, x) }
			want := classGeneral
			switch class % 5 {
			case 1:
				u = quantum.Matrix2{{complex(c[0], z(c[1])), complex(z(c[2]), c[3])}, {complex(z(c[4]), c[5]), complex(c[6], z(c[7]))}}
				want = classRealImag
			case 3:
				u = quantum.Matrix2{{complex(c[0], c[1]), complex(z(c[2]), z(c[3]))}, {complex(z(c[4]), z(c[5])), complex(c[6], c[7])}}
				want = classDiagonal
			case 4:
				u = quantum.Matrix2{{complex(z(c[0]), z(c[1])), complex(1, z(c[3]))}, {complex(1, z(c[5])), complex(z(c[6]), z(c[7]))}}
				want = classSwap
			}
			if classify(u) != want {
				t.Skip("the entries make another class")
			}
			tMask := 0
			if k := int(target % 6); k > 0 {
				tMask = 1 << (k - 1)
			}
			g := newPassGate(u, tMask, 0, uint64(ctrl)%ba&^uint64(tMask), 0)
			run = func(x [2][]float64) {
				if tMask == 0 {
					g.kernel(x[0], x[1])
				} else {
					g.kernel(x[0], x[0])
				}
			}
		default:
			// u's and v's bits: each an offset bit or, at 5, block bit 0.
			g := passGate{class: classUnit, u: quantum.Matrix2{{complex(c[0], c[1]), 0}, {0, complex(c[2], c[3])}}}
			for _, k := range []int{int(target&7) % 6, int(target>>4&7) % 6} {
				if k == 5 {
					g.par ^= 1
				} else {
					g.tMask ^= 1 << k
				}
			}
			run = func(x [2][]float64) {
				g.unit(x[0], 0)
				g.unit(x[1], 1)
			}
		}
		got := [2][]float64{slices.Clone(blocks[0]), slices.Clone(blocks[1])}
		defer func(on bool) { vectorKernels = on }(vectorKernels)
		vectorKernels = false
		run(blocks)
		vectorKernels = true
		run(got)
		for b := range blocks {
			for i, w := range blocks[b] {
				if g := got[b][i]; math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
					t.Fatalf("block %d component %d: vector %v (%#x), Go %v (%#x)", b, i, g, math.Float64bits(g), w, math.Float64bits(w))
				}
			}
		}
	})
}

// TestKernelAsmHasNoFMA: the vector file contains no fused multiply-add.
// A fused form rounds a product and a sum once where the Go loops round
// twice; on some inputs it happens to round the same, and there no bit
// test can see it.
func TestKernelAsmHasNoFMA(t *testing.T) {
	src, err := os.ReadFile("kernel_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(src), "VMULPD") {
		t.Fatal("kernel_amd64.s has no VMULPD: not the vector kernel file")
	}
	for i, line := range strings.Split(string(src), "\n") {
		for _, op := range []string{"VFMADD", "VFMSUB", "VFNMADD", "VFNMSUB"} {
			if strings.Contains(strings.ToUpper(line), op) {
				t.Errorf("kernel_amd64.s:%d: %s is a fused multiply-add: %s", i+1, op, strings.TrimSpace(line))
			}
		}
	}
}

// BenchmarkKernel times one gate over a block of the default size (2^12
// amplitudes), or a group of blocks, per class and loop shape, in ns per
// amplitude updated: t=0 is the shortest run the stride walk makes (one
// pair), t=mid the common case, ctrl=1 a controlled gate (half the pairs
// fire), ctrl=0 the same on a qubit-0 control (runs of one pair, as in
// QFT's CPhase(0, i) and SWAP's CNOT(0, i)), pair the block-segment
// target across two blocks, group the
// same target across both pairs of a 4-block group, group8 across the
// four pairs of an 8-block group. The classes are a fused H·T (general),
// RX (real-imag), RZ (diagonal) and X (swap). Dense random
// input has no zero component — the regime of every workload but
// Grover's; the /sparse variants draw half the components as ±0, as on
// Grover's ancillas, whose zeros the short forms' + 0 makes +0. The zz
// rows are a ZZ unit on every member of an 8-block group, in place, by
// how many of u and v are offset bits: par=0 on block bits alone, par=1
// with u an offset bit and v a block bit, par=2 with both offset bits,
// u on bit 0, 1, 2 or 6: in Go, runs of one and two amplitudes take the
// per-amplitude table, runs of four (t=2, as long as unitRun) and 64 the
// run loop.
// The rows of vecRows time both kernels, as impl=go and impl=vec
// (eachKernel); the others run whichever the CPU selects.
func BenchmarkKernel(b *testing.B) {
	vecRows := map[string]bool{
		"general/t=0": true, "general/t=mid": true, "general/group8": true,
		"real-imag/t=0": true, "real-imag/t=mid": true, "real-imag/group8": true,
		"diagonal/t=0": true, "diagonal/t=mid": true, "diagonal/group8": true,
		"swap/t=0": true, "swap/t=mid": true, "swap/group8": true,
		"general/ctrl=0": true, "real-imag/ctrl=0": true, "diagonal/ctrl=0": true, "swap/ctrl=0": true,
		"zz/par=0": true, "zz/par=1": true, "zz/par=2/t=0": true,
	}
	// row runs f as the benchmark name, or as its impl=go and impl=vec
	// pair for a vecRows name.
	row := func(b *testing.B, name, suffix string, f func(b *testing.B)) {
		if vecRows[name] {
			b.Run(name+suffix, func(b *testing.B) { eachKernel(b, f) })
		} else {
			b.Run(name+suffix, f)
		}
	}
	const offsetBits = 12 // the engine's default block
	const ba = 1 << offsetBits
	classes := []struct {
		name string
		u    quantum.Matrix2
	}{
		{"general", quantum.MatH.Mul(quantum.MatT)},
		{"real-imag", quantum.RX(1.3)},
		{"diagonal", quantum.RZ(0.7)},
		{"swap", quantum.MatX},
	}
	shapes := []struct {
		name          string
		tMask, stride int
		offCtrl       uint64
		span          int // the group's strides
	}{
		{"t=0", 1, 0, 0, 0},
		{"t=mid", 1 << (offsetBits / 2), 0, 0, 0},
		{"ctrl=1", 1 << (offsetBits / 2), 0, 1 << 3, 0},
		{"ctrl=0", 1 << (offsetBits / 2), 0, 1, 0},
		{"pair", 0, 1, 0, 1},
		{"group", 0, 1, 0, 3},
		{"group8", 0, 1, 0, 7},
	}
	inputs := []struct {
		suffix string
		draw   func(rng *rand.Rand) float64
	}{
		{"", func(rng *rand.Rand) float64 { return rng.NormFloat64() }},
		{"/sparse", func(rng *rand.Rand) float64 {
			switch rng.Intn(4) {
			case 0:
				return 0
			case 1:
				return negZero
			}
			return rng.NormFloat64()
		}},
	}
	rng := rand.New(rand.NewSource(1))
	var bufs [groupSize][]float64
	for m := range bufs {
		bufs[m] = make([]float64, 2*ba)
	}
	// run times p at the group based at block 0, amps amplitudes updated
	// a pass.
	run := func(b *testing.B, p *blockPass, amps int, draw func(*rand.Rand) float64) {
		for _, buf := range bufs {
			for i := range buf {
				buf[i] = draw(rng)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.apply(bufs[:], 0)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(amps), "ns/amp")
	}
	for _, c := range classes {
		for _, sh := range shapes {
			for _, in := range inputs {
				row(b, c.name+"/"+sh.name, in.suffix, func(b *testing.B) {
					p := newBlockPass(passKey{}, []passGate{newPassGate(c.u, sh.tMask, sh.stride, sh.offCtrl, 0)}, sh.span, 0)
					amps := p.size * ba
					if sh.offCtrl != 0 {
						amps /= 2
					}
					run(b, p, amps, in.draw)
				})
			}
		}
	}
	const mid = 1 << (offsetBits / 2)
	for _, sh := range []struct {
		name       string
		tMask, par int
	}{
		{"par=0", 0, 3},
		{"par=1", mid, 1},
		{"par=2/t=0", 1 | mid<<3, 0},
		{"par=2/t=1", 2 | mid<<3, 0},
		{"par=2/t=2", 4 | mid<<3, 0},
		{"par=2/t=mid", mid | mid<<3, 0},
	} {
		for _, in := range inputs {
			row(b, "zz/"+sh.name, in.suffix, func(b *testing.B) {
				g := passGate{class: classUnit, u: quantum.RZ(0.7), tMask: sh.tMask, par: sh.par}
				run(b, newBlockPass(passKey{}, []passGate{g}, 7, sh.par), groupSize*ba, in.draw)
			})
		}
	}
}

// benchVariants holds K clones of a QAOA state on qubits qubits in
// 4096-amplitude blocks: 13 is a gradient's geometry, two blocks, one
// pair; 14 is one group of four, 15 one group of eight. The state is
// dense under budget 0 (unlimited); a tight budget makes it lossy.
func benchVariants(b *testing.B, qubits, k, workers int, budget int64) []*Simulator {
	b.Helper()
	base, err := New(Config{Qubits: qubits, Seed: 1, Workers: workers, MemoryBudget: budget})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { base.Close() })
	if err := base.Run(quantum.QAOA(qubits, 1, 1)); err != nil {
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

// BenchmarkLockstepPass is one group sweep over K variants that share
// nothing (each its own rotation angle): the (block, variant) fan-out,
// codec round trip included, on a pair (13 qubits, a target on the
// block qubit), a group of four (14 qubits, targets on both) and a group
// of eight (15 qubits, targets on all three). The shift rows are a
// parameter-shift gradient's batch on the pair: a 104-gate QAOA layer,
// one pass of 52 gates with its ZZ triples as units, and 78 variants
// that each part from it at one gate, spread over the pass,
// so all but variant 0 run as forks of its walk.
func BenchmarkLockstepPass(b *testing.B) {
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("shift/blocks=2/K=79/workers=%d", workers), func(b *testing.B) {
			ansatz := quantum.QAOAAnsatzGraph(13, 1, quantum.RandomRegularGraph(13, 4, 13))
			values := quantum.QAOAAngles(1, 1)
			base, err := ansatz.Bind(values)
			if err != nil {
				b.Fatal(err)
			}
			circuits := []*quantum.Circuit{base}
			for _, occ := range ansatz.ParamOccurrences() {
				for _, delta := range []float64{math.Pi / 2, -math.Pi / 2} {
					c, err := ansatz.BindShift(values, occ.Gate, delta)
					if err != nil {
						b.Fatal(err)
					}
					circuits = append(circuits, c)
				}
			}
			if len(circuits) != 79 {
				b.Fatalf("%d variants, want 79", len(circuits))
			}
			sims := benchVariants(b, 13, len(circuits)+1, workers, 0)
			start, sims := sims[0], sims[1:]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Every variant starts from the same blobs, as a gradient's
				// clones do; a second run on the states the first left
				// would part at gate 0.
				b.StopTimer()
				for _, s := range sims {
					for r, rs := range s.ranks {
						if err := s.install(rs, start.ranks[r].walk, 0, false); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.StartTimer()
				if err := RunBatch(sims, circuits, RunControl{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(2*len(circuits)), "ns/variant-block")
		})
	}
	for _, qubits := range []int{13, 14, 15} {
		blocks := 1 << (qubits - 12)
		for _, k := range []int{1, 8, 79} {
			for _, workers := range []int{1, 2} {
				b.Run(fmt.Sprintf("blocks=%d/K=%d/workers=%d", blocks, k, workers), func(b *testing.B) {
					sims := benchVariants(b, qubits, k, workers, 0)
					circuits := make([]*quantum.Circuit, k)
					for v := range circuits {
						circuits[v] = quantum.NewCircuit(qubits).RX(0, 0.1+float64(0.01*float64(v)))
						for q := 12; q < qubits; q++ {
							circuits[v].H(q)
						}
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := RunBatch(sims, circuits, RunControl{}); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(blocks*k), "ns/variant-block")
				})
			}
		}
	}
}

// BenchmarkDiagonalExpectation is a gradient's readout: a 26-edge MAXCUT
// observable on K 13-qubit QAOA states, whose blobs are none compact,
// on 79 lossy ones, whose two compact blobs each stores once (read
// through the shared table, as the dense rows are), and on one GHZ-24
// state, 4 096 blocks of three distinct compact blobs.
func BenchmarkDiagonalExpectation(b *testing.B) {
	var zzs []quantum.ZZTerm
	for _, e := range quantum.RandomRegularGraph(13, 4, 1) {
		zzs = append(zzs, quantum.ZZTerm{A: e.U, B: e.V, W: -0.5})
	}
	read := func(b *testing.B, sims []*Simulator) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := DiagonalExpectations(sims, nil, zzs); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(sims)<<sims[0].Qubits()*len(zzs)), "ns/amp-term")
	}
	for _, k := range []int{1, 79} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) { read(b, benchVariants(b, 13, k, 2, 0)) })
	}
	b.Run("lossy/K=79", func(b *testing.B) {
		sims := benchVariants(b, 13, 79, 2, 32<<10)
		for _, s := range sims {
			if compact, repeated := compactBlobs(b, s); compact != 2 || repeated != 0 {
				b.Fatalf("%d compact blobs, %d of them repeated; want 2 stored once each", compact, repeated)
			}
		}
		read(b, sims)
	})
	b.Run("GHZ-24/K=1", func(b *testing.B) {
		s, err := New(Config{Qubits: 24, Seed: 1, Workers: 2})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { s.Close() })
		if err := s.Run(quantum.GHZ(24)); err != nil {
			b.Fatal(err)
		}
		read(b, []*Simulator{s})
	})
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

// TestCodecBlobPrefixesStayUnwritten: compressBlock hands the codecs
// shared one-byte tag prefixes; every blob starts with its tag, the
// prefixes are as they were after a compress at each level, and a
// lossless compress allocates its blob and nothing else.
func TestCodecBlobPrefixesStayUnwritten(t *testing.T) {
	s := newSim(t, 8, 1, 64, nil)
	rng := rand.New(rand.NewSource(3))
	x := make([]float64, 2*64)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	var st Stats
	for level := 0; level <= len(s.cfg.ErrorLevels); level++ {
		blob, err := s.compressBlock(level, x, &st)
		if err != nil {
			t.Fatal(err)
		}
		if want := min(byte(level), tagLossy); blob[0] != want {
			t.Errorf("level %d: blob tag %d, want %d", level, blob[0], want)
		}
	}
	for _, p := range []struct {
		name   string
		prefix []byte
		tag    byte
	}{{"raw", rawPrefix, tagRaw}, {"lossless", losslessPrefix, tagLossless}, {"lossy", lossyPrefix, tagLossy}} {
		if len(p.prefix) != 1 || cap(p.prefix) != 1 || p.prefix[0] != p.tag {
			t.Errorf("%sPrefix is %v with room for %d after compressing, want [%d] with room for 1", p.name, p.prefix, cap(p.prefix), p.tag)
		}
	}
	if codectest.RaceEnabled {
		return // the codec's pooled scratch is dropped under -race
	}
	if n := testing.AllocsPerRun(100, func() { s.compressBlock(0, x, &st) }); n != 1 {
		t.Errorf("lossless compressBlock: %v allocations, want 1 (the blob)", n)
	}
}
