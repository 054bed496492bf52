package quantum

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestPlanSweepsPartitionsBlockLocalRuns(t *testing.T) {
	const offsetBits = 3
	c := NewCircuit(6)
	c.H(0).H(1).H(2)                    // block-local run of 3
	c.CNOT(1, 4)                        // cross-block target: singleton barrier
	c.X(0).CZ(2, 1).T(2)                // block-local run of 3 (controls in offset bits too)
	c.Measure(1)                        // measurement: singleton barrier
	c.H(0)                              // block-local run of 1
	c.ApplyControlled("cx", MatX, 0, 5) // control outside offset bits: barrier
	c.H(2).H(1)                         // trailing block-local run of 2

	plan := PlanSweeps(c.Gates, offsetBits)
	want := []Sweep{
		{0, 3, true},
		{3, 4, false},
		{4, 7, true},
		{7, 8, false},
		{8, 9, true},
		{9, 10, false},
		{10, 12, true},
	}
	if len(plan) != len(want) {
		t.Fatalf("got %d sweeps %v, want %d", len(plan), plan, len(want))
	}
	for i, sw := range plan {
		if sw != want[i] {
			t.Fatalf("sweep %d = %+v, want %+v (plan %v)", i, sw, want[i], plan)
		}
	}
}

// TestQuickPlanSweepsIsAPartition: for any circuit and offset width, the
// plan covers [0, len(gates)) contiguously in order, local sweeps hold
// only block-local gates, and local runs are maximal (no two adjacent
// local sweeps, no local gate stranded at a non-local boundary).
func TestQuickPlanSweepsIsAPartition(t *testing.T) {
	f := func(seed int64, offSel, gateCount uint8) bool {
		offsetBits := 1 + int(offSel)%7
		gates := 1 + int(gateCount)%60
		cir := RandomCircuit(7, gates, seed)
		cir.Measure(int(uint64(seed) % 7))
		plan := PlanSweeps(cir.Gates, offsetBits)
		next := 0
		for i, sw := range plan {
			if sw.Start != next || sw.End <= sw.Start {
				t.Logf("sweep %d = %+v not contiguous at %d", i, sw, next)
				return false
			}
			next = sw.End
			for gi := sw.Start; gi < sw.End; gi++ {
				if BlockLocal(cir.Gates[gi], offsetBits) != sw.Local {
					t.Logf("gate %d locality mismatches sweep %+v", gi, sw)
					return false
				}
			}
			if !sw.Local && sw.Len() != 1 {
				t.Logf("non-local sweep %+v not a singleton", sw)
				return false
			}
			if sw.Local && i > 0 && plan[i-1].Local {
				t.Logf("adjacent local sweeps %+v, %+v not merged", plan[i-1], sw)
				return false
			}
		}
		return next == len(cir.Gates)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSweepSignatureUnambiguous: length prefixes keep distinct gate
// sequences from concatenating to identical signatures.
func TestSweepSignatureUnambiguous(t *testing.T) {
	h0, h1, x0 := Gate{Name: "h", Target: 0, U: MatH}, Gate{Name: "h", Target: 1, U: MatH}, Gate{Name: "x", Target: 0, U: MatX}
	sigs := map[string][]Gate{}
	for _, run := range [][]Gate{
		{h0}, {h1}, {x0},
		{h0, h1}, {h1, h0}, {h0, x0}, {h0, h1, x0},
	} {
		s := SweepSignature(run)
		if prev, dup := sigs[s]; dup {
			t.Fatalf("sweep signature collision: %v vs %v", prev, run)
		}
		sigs[s] = run
	}
}

func TestBlockLocal(t *testing.T) {
	for _, tc := range []struct {
		g    Gate
		off  int
		want bool
	}{
		{Gate{Name: "h", Target: 2, U: MatH}, 3, true},
		{Gate{Name: "h", Target: 3, U: MatH}, 3, false},
		{Gate{Name: "cx", Target: 0, Controls: []int{2}, U: MatX}, 3, true},
		{Gate{Name: "cx", Target: 0, Controls: []int{3}, U: MatX}, 3, false},
		{Gate{Name: "ccx", Target: 1, Controls: []int{0, 5}, U: MatX}, 3, false},
		{Gate{Kind: KindMeasure, Name: "measure", Target: 0}, 3, false},
	} {
		if got := BlockLocal(tc.g, tc.off); got != tc.want {
			t.Errorf("BlockLocal(%v, %d) = %v, want %v", tc.g, tc.off, got, tc.want)
		}
	}
}

// TestPlanGroupSweeps is the group planner's table: 7 qubits split as
// 3 offset | 2 block | 2 rank bits unless a case says otherwise.
func TestPlanGroupSweeps(t *testing.T) {
	h := func(q int) Gate { return Gate{Name: "h", Target: q, U: MatH} }
	cx := func(c, q int) Gate { return Gate{Name: "cx", Target: q, Controls: []int{c}, U: MatX} }
	m := func(q int) Gate { return Gate{Kind: KindMeasure, Name: "measure", Target: q} }
	rz := func(q int) Gate { return Gate{Name: "rz", Target: q, U: RZ(0.4)} }
	crz := func(c, q int) Gate { return Gate{Name: "crz", Target: q, Controls: []int{c}, U: RZ(0.4)} }
	for _, tc := range []struct {
		name              string
		offsetBits, blkBs int
		width             int
		gates             []Gate
		want              []GroupSweep
	}{
		{"local only", 3, 2, 2,
			[]Gate{h(0), h(1), cx(0, 2)},
			[]GroupSweep{{0, 3, true, nil}}},
		{"one block target with interleaved local gates", 3, 2, 2,
			[]Gate{h(0), h(3), h(1), h(3), cx(3, 2)},
			[]GroupSweep{{0, 5, true, nil}}},
		{"two alternating block targets share a group", 3, 2, 2,
			[]Gate{h(3), h(0), h(4), h(1), h(3), h(4)},
			[]GroupSweep{{0, 6, true, nil}}},
		{"width 1: each switch of block target splits", 3, 2, 1,
			[]Gate{h(3), h(0), h(4), h(1), h(3), h(4)},
			[]GroupSweep{{0, 2, true, nil}, {2, 4, true, nil}, {4, 5, true, nil}, {5, 6, true, nil}}},
		{"each group target controlled on the other", 3, 2, 2,
			[]Gate{cx(4, 3), h(1), cx(3, 4), cx(3, 0)},
			[]GroupSweep{{0, 4, true, nil}}},
		// 3 offset | 3 block | 1 rank: qubit 5 is a third block target.
		{"a third block target splits a run", 3, 3, 2,
			[]Gate{h(3), h(0), h(4), h(1), h(5), h(3), h(4), h(5), h(2)},
			[]GroupSweep{{0, 4, true, nil}, {4, 6, true, nil}, {6, 9, true, nil}}},
		{"a control on a third block qubit does not", 3, 3, 2,
			[]Gate{h(3), cx(5, 4), cx(5, 0), h(3)},
			[]GroupSweep{{0, 4, true, nil}}},
		{"block- and rank-segment controls join", 3, 2, 2,
			[]Gate{cx(4, 0), cx(6, 3), cx(3, 1), cx(5, 3)},
			[]GroupSweep{{0, 4, true, nil}}},
		{"a cross-rank target joins a run", 3, 2, 2,
			[]Gate{h(0), h(3), h(5), h(3), h(1)},
			[]GroupSweep{{0, 5, true, nil}}},
		{"a second distinct rank target splits a run", 3, 2, 3,
			[]Gate{h(5), h(0), cx(6, 3), h(6), h(5)},
			[]GroupSweep{{0, 3, true, nil}, {3, 4, true, nil}, {4, 5, true, nil}}},
		{"a rank target counts toward the width", 3, 2, 2,
			[]Gate{h(3), h(5), h(1), h(4), h(5)},
			[]GroupSweep{{0, 3, true, nil}, {3, 5, true, nil}}},
		{"width 1: a rank target with offset gates is a pair sweep", 3, 2, 1,
			[]Gate{h(0), h(5), cx(5, 1), h(3)},
			[]GroupSweep{{0, 3, true, nil}, {3, 4, true, nil}}},
		{"measurement splits a run", 3, 2, 2,
			[]Gate{h(0), m(0), m(4), h(4), h(1)},
			[]GroupSweep{{0, 1, true, nil}, {1, 2, false, nil}, {2, 3, false, nil}, {3, 5, true, nil}}},
		{"no block segment: a rank target joins", 5, 0, 2,
			[]Gate{h(0), h(4), h(5), cx(6, 3)},
			[]GroupSweep{{0, 4, true, nil}}},
		{"width 1: a ZZ unit on a block qubit needs no target", 3, 2, 1,
			[]Gate{h(3), cx(0, 4), rz(4), cx(0, 4), cx(3, 4), rz(4), cx(3, 4), h(3)},
			[]GroupSweep{{0, 8, true, []int{1, 4}}}},
		{"width 1: ZZ units on rank qubits need no target or exchange", 3, 2, 1,
			[]Gate{h(3), cx(4, 5), rz(5), cx(4, 5), cx(6, 5), rz(5), cx(6, 5), cx(5, 4), rz(4), cx(5, 4), h(1)},
			[]GroupSweep{{0, 11, true, []int{1, 4, 7}}}},
		{"width 1: an offset-v triple is a unit", 3, 2, 1,
			[]Gate{h(3), cx(4, 1), rz(1), cx(4, 1), cx(0, 1), rz(1), cx(0, 1), h(3)},
			[]GroupSweep{{0, 8, true, []int{1, 4}}}},
		{"width 1: a measurement breaks a triple", 3, 2, 1,
			[]Gate{h(3), cx(0, 4), rz(4), m(0), cx(0, 4)},
			[]GroupSweep{{0, 1, true, nil}, {1, 3, true, nil}, {3, 4, false, nil}, {4, 5, true, nil}}},
		{"width 1: a controlled middle gate makes no unit", 3, 2, 1,
			[]Gate{h(3), cx(0, 4), crz(1, 4), cx(0, 4)},
			[]GroupSweep{{0, 1, true, nil}, {1, 4, true, nil}}},
		{"width 1: a general middle gate makes no unit", 3, 2, 1,
			[]Gate{h(3), cx(0, 4), h(4), cx(0, 4)},
			[]GroupSweep{{0, 1, true, nil}, {1, 4, true, nil}}},
		{"width 1: CNOTs on different controls make no unit", 3, 2, 1,
			[]Gate{h(3), cx(0, 4), rz(4), cx(1, 4)},
			[]GroupSweep{{0, 1, true, nil}, {1, 4, true, nil}}},
	} {
		plan := PlanGroupSweeps(tc.gates, tc.offsetBits, tc.blkBs, tc.width)
		if len(plan) != len(tc.want) {
			t.Errorf("%s: plan %v, want %v", tc.name, plan, tc.want)
			continue
		}
		for i := range plan {
			if !sameSweep(plan[i], tc.want[i]) {
				t.Errorf("%s: sweep %d = %+v, want %+v", tc.name, i, plan[i], tc.want[i])
			}
		}
		single := SingletonSweeps(tc.gates)
		for i, sw := range single {
			if sw.Start != i || sw.End != i+1 || sw.Pass != (tc.gates[i].Kind == KindUnitary) {
				t.Errorf("%s: singleton %d = %+v", tc.name, i, sw)
			}
		}
	}
}

// sameSweep compares two group sweeps field by field.
func sameSweep(a, b GroupSweep) bool {
	return a.Start == b.Start && a.End == b.End && a.Pass == b.Pass && slices.Equal(a.Units, b.Units)
}

// TestQuickPlanGroupSweepsIsAPartition: for any circuit, geometry and
// width (1, 2 or 3) the plan covers [0, len(gates)) contiguously in order,
// a pass holds only unitaries with at most width distinct non-offset
// targets outside its ZZ units, of which at most one is a rank-segment
// qubit, measurements are singletons, and passes are maximal — the next
// gate could not have joined: it would have been one non-offset target
// too many, or a second rank-segment target. The units are ZZ units,
// inside their pass, and no gate outside them starts one. RandomCircuit
// draws units.
func TestQuickPlanGroupSweepsIsAPartition(t *testing.T) {
	unitsSeen := 0
	f := func(seed int64, offSel, blkSel, gateCount, widthSel uint8) bool {
		const n = 7
		offsetBits := 1 + int(offSel)%n
		blockBits := int(blkSel) % (n - offsetBits + 1)
		width := 1 + int(widthSel)%3
		cir := RandomCircuit(n, 1+int(gateCount)%60, seed)
		cir.Measure(int(uint64(seed) % n))
		cir.H(int(uint64(seed) % n))
		plan := PlanGroupSweeps(cir.Gates, offsetBits, blockBits, width)
		rankBase := offsetBits + blockBits
		units := 0
		// inUnit reports whether gate i of sw lies in one of its units.
		inUnit := func(sw GroupSweep, i int) bool {
			for _, u := range sw.Units {
				if u <= i && i < u+3 {
					return true
				}
			}
			return false
		}
		// targets returns the distinct non-offset targets of the sweep's
		// gates outside its units and how many of them are rank-segment
		// qubits.
		targets := func(sw GroupSweep) (ts map[int]bool, ranks int) {
			ts = map[int]bool{}
			for i, g := range cir.Gates[sw.Start:sw.End] {
				if inUnit(sw, i) {
					continue
				}
				if g.Target >= offsetBits && !ts[g.Target] {
					ts[g.Target] = true
					if g.Target >= rankBase {
						ranks++
					}
				}
			}
			return ts, ranks
		}
		next := 0
		for i, sw := range plan {
			if sw.Start != next || sw.End <= sw.Start {
				t.Logf("sweep %d = %+v not contiguous at %d", i, sw, next)
				return false
			}
			next = sw.End
			for k, u := range sw.Units {
				if k > 0 && u < sw.Units[k-1]+3 || u+3 > sw.Len() || !ZZUnit(cir.Gates, sw.Start+u) {
					t.Logf("sweep %+v: unit %d is no ZZ unit inside it", sw, u)
					return false
				}
				units++
			}
			for i := range sw.Len() {
				if !inUnit(sw, i) && ZZUnit(cir.Gates, sw.Start+i) {
					t.Logf("sweep %+v: gate %d starts a ZZ unit the plan did not name", sw, sw.Start+i)
					return false
				}
			}
			for _, g := range cir.Gates[sw.Start:sw.End] {
				if (g.Kind == KindUnitary) != sw.Pass {
					t.Logf("gate %v mismatches sweep %+v", g, sw)
					return false
				}
			}
			if !sw.Pass && sw.Len() != 1 {
				t.Logf("non-pass sweep %+v not a singleton", sw)
				return false
			}
			ts, ranks := targets(sw)
			if len(ts) > width || ranks > 1 {
				t.Logf("sweep %+v has non-offset targets %v, %d of them rank-segment", sw, ts, ranks)
				return false
			}
			if sw.Pass && i+1 < len(plan) && plan[i+1].Pass {
				g := cir.Gates[sw.End]
				secondRank := g.Target >= rankBase && ranks == 1
				if g.Target < offsetBits || ts[g.Target] || len(ts) < width && !secondRank {
					t.Logf("gate %v could have joined sweep %+v (targets %v)", g, sw, ts)
					return false
				}
			}
		}
		unitsSeen += units
		return next == len(cir.Gates)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	if unitsSeen == 0 {
		t.Fatal("no plan named a ZZ unit; the test is vacuous")
	}
}

// TestPlanGroupSweepsAllocs pins the planner's allocations on a bound
// 13-qubit QAOA ansatz (104 gates, one sweep of 26 ZZ units at 4096
// amplitudes a block): the plan, the target list and one backing array
// for every sweep's Units. A batch plans each of its variants, so a
// Units slice that grows by append costs one allocation per doubling
// per variant.
func TestPlanGroupSweepsAllocs(t *testing.T) {
	c, err := QAOAAnsatz(13, 1, 1).Bind(QAOAAngles(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	var plan []GroupSweep
	n := testing.AllocsPerRun(20, func() { plan = PlanGroupSweeps(c.Gates, 12, 1, 3) })
	if len(c.Gates) != 104 || len(plan) != 1 || len(plan[0].Units) != 26 {
		t.Fatalf("%d gates, %d sweeps, %d units; want 104, 1, 26", len(c.Gates), len(plan), len(plan[0].Units))
	}
	if n > 3 {
		t.Errorf("PlanGroupSweeps made %v allocations, want at most 3", n)
	}
	// Two sweeps split by a measurement share the backing array; each
	// window ends at its own length, so appending to one cannot write
	// into the next.
	c.Measure(0)
	c.Gates = append(c.Gates, c.Gates[13:104]...)
	plan = PlanGroupSweeps(c.Gates, 12, 1, 3)
	for i, sw := range plan {
		if sw.Pass && (len(sw.Units) != 26 || cap(sw.Units) != len(sw.Units)) {
			t.Errorf("sweep %d: %d units, capacity %d; want 26 and 26", i, len(sw.Units), cap(sw.Units))
		}
	}
}
