package distrib

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"os/exec"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"qcsim/internal/compress"
	"qcsim/internal/compress/lossless"
	"qcsim/internal/compress/szlike"
	"qcsim/internal/core"
	"qcsim/internal/mpi"
	"qcsim/internal/quantum"
)

// TestMain doubles as the worker executable: a spawned copy of this
// test binary sees the env marker before any test runs and becomes a
// distributed rank instead.
func TestMain(m *testing.M) {
	if os.Getenv("QCSIM_DISTRIB_WORKER") == "1" {
		if err := Worker(os.Getenv(EnvCoordAddr)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// selfWorker returns the argv that re-execs this test binary as a
// worker, and marks the environment so the child takes the TestMain
// worker branch.
func selfWorker(t *testing.T) []string {
	t.Helper()
	t.Setenv("QCSIM_DISTRIB_WORKER", "1")
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("os.Executable: %v", err)
	}
	return []string{exe}
}

func parseCircuit(t *testing.T, text string) *quantum.Circuit {
	t.Helper()
	c, err := quantum.Parse(strings.NewReader(text))
	if err != nil {
		t.Fatalf("parse circuit: %v", err)
	}
	return c
}

// conformanceCircuit mixes local, cross-block, cross-rank (qubit 7 is
// the rank bit at this geometry), controlled, rotation, and
// measurement gates.
const conformanceCircuit = `qubits 8
h 0
h 7
cx 0 7
rz 3 0.7853981633974483
cx 3 5
h 5
cp 0 6 1.1
measure 2
x 1
cx 7 1
measure 7
`

// TestRunMatchesInProcess executes the same circuit on the goroutine
// transport and over real worker processes and requires bit-identical
// state, ledger, measurements, and deterministic accounting.
func TestRunMatchesInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	cases := []struct {
		name string
		cfg  core.Config
	}{
		// Workers is pinned to 1: amplitudes are bit-identical for any
		// worker count, but the cache-hit counters depend on worker-pool
		// timing, and this test compares them exactly.
		{"lossless", core.Config{Qubits: 8, Ranks: 2, Workers: 1, BlockAmps: 16, CacheLines: 8, Seed: 42}},
		{"budgeted-lossy", core.Config{Qubits: 8, Ranks: 4, Workers: 1, BlockAmps: 8, MemoryBudget: 1024, Seed: 7}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			circ := parseCircuit(t, conformanceCircuit)

			ref, err := core.New(tc.cfg)
			if err != nil {
				t.Fatalf("reference sim: %v", err)
			}
			defer ref.Close()
			if err := ref.RunControlled(circ, core.RunControl{}); err != nil {
				t.Fatalf("in-process run: %v", err)
			}

			sim, err := core.New(tc.cfg)
			if err != nil {
				t.Fatalf("coordinator sim: %v", err)
			}
			defer sim.Close()
			opt := Options{WorkerCommand: selfWorker(t), JobTimeout: 2 * time.Minute}
			if err := Run(sim, circ, opt, nil); err != nil {
				t.Fatalf("distributed run: %v", err)
			}

			wantState, err := ref.FullState()
			if err != nil {
				t.Fatalf("reference state: %v", err)
			}
			gotState, err := sim.FullState()
			if err != nil {
				t.Fatalf("distributed state: %v", err)
			}
			for i := range wantState {
				if math.Float64bits(real(wantState[i])) != math.Float64bits(real(gotState[i])) ||
					math.Float64bits(imag(wantState[i])) != math.Float64bits(imag(gotState[i])) {
					t.Fatalf("amplitude %d differs: in-process %v, distributed %v", i, wantState[i], gotState[i])
				}
			}
			if w, g := ref.FidelityLowerBound(), sim.FidelityLowerBound(); math.Float64bits(w) != math.Float64bits(g) {
				t.Errorf("ledger differs: in-process %v, distributed %v", w, g)
			}
			if w, g := ref.Measurements(), sim.Measurements(); fmt.Sprint(w) != fmt.Sprint(g) {
				t.Errorf("measurements differ: in-process %v, distributed %v", w, g)
			}
			if w, g := ref.GatesRun(), sim.GatesRun(); w != g {
				t.Errorf("gates run differ: in-process %d, distributed %d", w, g)
			}
			if w, g := ref.BytesMoved(), sim.BytesMoved(); w != g {
				t.Errorf("bytes moved differ: in-process %d, distributed %d", w, g)
			}
			ws, gs := ref.Stats(), sim.Stats()
			deterministic := []struct {
				name string
				w, g int64
			}{
				{"Gates", int64(ws.Gates), int64(gs.Gates)},
				{"Sweeps", int64(ws.Sweeps), int64(gs.Sweeps)},
				{"SweepGates", int64(ws.SweepGates), int64(gs.SweepGates)},
				{"CompressCalls", int64(ws.CompressCalls), int64(gs.CompressCalls)},
				{"DecompressCalls", int64(ws.DecompressCalls), int64(gs.DecompressCalls)},
				{"CacheLookups", int64(ws.CacheLookups), int64(gs.CacheLookups)},
				{"CacheHits", int64(ws.CacheHits), int64(gs.CacheHits)},
				{"Escalations", int64(ws.Escalations), int64(gs.Escalations)},
				{"FinalLevel", int64(ws.FinalLevel), int64(gs.FinalLevel)},
			}
			for _, d := range deterministic {
				if d.w != d.g {
					t.Errorf("Stats.%s differs: in-process %d, distributed %d", d.name, d.w, d.g)
				}
			}
		})
	}
}

// TestJobSpecCarriesConfig: a worker rebuilds the coordinator's
// configuration exactly. Reflection sets every exported non-interface
// Config field to a non-zero value — so a field added later is covered
// without editing this test — both codecs carry non-default registry
// names, and the spec crosses gob as it does on the wire.
func TestJobSpecCarriesConfig(t *testing.T) {
	var cfg core.Config
	v := reflect.ValueOf(&cfg).Elem()
	for i := 0; i < v.NumField(); i++ {
		f, sf := v.Field(i), v.Type().Field(i)
		switch {
		case !sf.IsExported() || f.Kind() == reflect.Interface:
		case f.CanInt():
			f.SetInt(int64(i + 2))
		case f.CanFloat():
			f.SetFloat(0.25)
		case f.Kind() == reflect.Bool:
			f.SetBool(true)
		case f.Kind() == reflect.String:
			f.SetString(sf.Name)
		case f.Type() == reflect.TypeOf([]float64(nil)):
			f.Set(reflect.ValueOf([]float64{1e-3, 1e-1}))
		default:
			t.Fatalf("Config.%s is a %s, which this test cannot fill", sf.Name, f.Type())
		}
	}
	cfg.Lossless = lossless.New(true) // "zstd-like+shuffle"
	cfg.Lossy = szlike.NewB()         // "sz-b"

	spec, err := buildSpec(cfg, quantum.GHZ(3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := ship(t, spec).config()
	if err != nil {
		t.Fatal(err)
	}

	want, got := reflect.ValueOf(cfg), reflect.ValueOf(rebuilt)
	for i := 0; i < want.NumField(); i++ {
		if !want.Type().Field(i).IsExported() {
			continue
		}
		t.Run(want.Type().Field(i).Name, func(t *testing.T) {
			w, g := want.Field(i).Interface(), got.Field(i).Interface()
			if wc, ok := w.(compress.Codec); ok {
				if gc, _ := g.(compress.Codec); gc == nil || gc.Name() != wc.Name() {
					t.Fatalf("codec %q arrived as %v", wc.Name(), g)
				}
				return
			}
			if !reflect.DeepEqual(w, g) {
				t.Fatalf("sent %v, worker built %v", w, g)
			}
		})
	}
}

// ship sends spec across gob as the coordinator's control connection
// does and returns what a worker decodes.
func ship(t *testing.T, spec JobSpec) JobSpec {
	t.Helper()
	var wire bytes.Buffer
	if err := gob.NewEncoder(&wire).Encode(spec); err != nil {
		t.Fatal(err)
	}
	var shipped JobSpec
	if err := gob.NewDecoder(&wire).Decode(&shipped); err != nil {
		t.Fatal(err)
	}
	return shipped
}

// TestJobSpecCarriesCircuit: the circuit arrives gate for gate with
// every matrix entry's float64 bits — −0, a NaN payload, a subnormal
// and ±Inf included — so a worker executes the coordinator's exact
// unitaries.
func TestJobSpecCarriesCircuit(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nan := math.Float64frombits(0x7ff8_dead_0000_beef)
	odd := quantum.Matrix2{
		{complex(negZero, nan), complex(math.SmallestNonzeroFloat64, math.Inf(1))},
		{complex(math.Inf(-1), negZero), complex(negZero, negZero)},
	}
	c := quantum.QFT(5, 1)
	c.ApplyControlled("odd", odd, 2, 4, 0).Apply("zeros", quantum.Matrix2{{complex(negZero, negZero)}}, 1).Measure(3)
	cfg := core.Config{Qubits: 5, Ranks: 2, Lossless: lossless.New(false), Lossy: szlike.NewB()}
	spec, err := buildSpec(cfg, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := ship(t, spec).Circuit
	if got == nil || got.N != c.N || len(got.Gates) != len(c.Gates) {
		t.Fatalf("sent a %d-qubit circuit of %d gates, worker got %+v", c.N, len(c.Gates), got)
	}
	bits := func(m quantum.Matrix2) (b [8]uint64) {
		for i, z := range []complex128{m[0][0], m[0][1], m[1][0], m[1][1]} {
			b[2*i], b[2*i+1] = math.Float64bits(real(z)), math.Float64bits(imag(z))
		}
		return b
	}
	for i, w := range c.Gates {
		g := got.Gates[i]
		if g.Kind != w.Kind || g.Name != w.Name || g.Target != w.Target ||
			!slices.Equal(g.Controls, w.Controls) || g.Par != nil || bits(g.U) != bits(w.U) {
			t.Errorf("gate %d: sent %v %x, worker got %v %x", i, w, bits(w.U), g, bits(g.U))
		}
	}
}

// assignment returns rank 0's assignment of c on a two-rank simulator
// as wide as c, built the way Run builds it.
func assignment(t testing.TB, c *quantum.Circuit) assignMsg {
	sim, err := core.New(core.Config{Qubits: c.N, Ranks: 2, Workers: 1, BlockAmps: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	spec, err := buildSpec(sim.Config(), c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	blocks, level, err := sim.ExportRankBlocks(0)
	if err != nil {
		t.Fatal(err)
	}
	return assignMsg{Peers: []string{"127.0.0.1:1", "127.0.0.1:2"}, Spec: spec, Blocks: blocks, Level: level}
}

// assignmentSeeds are gob encodings of real assignments: plain,
// controlled (one and two controls), rotated and measured circuits.
func assignmentSeeds(t testing.TB) [][]byte {
	measured := quantum.GHZ(4)
	measured.Measure(2).Measure(0)
	var out [][]byte
	for _, c := range []*quantum.Circuit{
		quantum.QFT(5, 1),
		quantum.GHZ(6),
		quantum.NewCircuit(4).Toffoli(0, 1, 3).CPhase(2, 0, 0.3).RY(1, 1.1),
		measured,
	} {
		var b bytes.Buffer
		if err := gob.NewEncoder(&b).Encode(assignment(t, c)); err != nil {
			t.Fatal(err)
		}
		out = append(out, b.Bytes())
	}
	return out
}

// FuzzAssignment: whatever bytes reach a worker's control connection,
// decoding them and checking the assignment never panics, and what the
// check accepts is safe to mesh and run: codecs resolved, a bound,
// well-formed circuit on the configured register, one peer per rank and
// a rank among them.
func FuzzAssignment(f *testing.F) {
	for _, b := range assignmentSeeds(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var as assignMsg
		if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&as); err != nil {
			return
		}
		cfg, err := as.check()
		if err != nil {
			return
		}
		c := as.Spec.Circuit
		switch {
		case cfg.Lossless == nil || cfg.Lossy == nil:
			t.Fatal("accepted an assignment without codecs")
		case c == nil || c.N != cfg.Qubits || c.Parametric() || c.Validate() != nil:
			t.Fatalf("accepted a malformed circuit: %+v", c)
		case len(as.Peers) != cfg.Ranks || as.Rank < 0 || as.Rank >= len(as.Peers):
			t.Fatalf("accepted rank %d of %d peers for %d ranks", as.Rank, len(as.Peers), cfg.Ranks)
		}
	})
}

// meshTrap is a data listener no rank may reach: rank 0 of a mesh
// accepts its peers first thing, so an Accept here means the worker
// meshed before refusing its assignment.
type meshTrap struct {
	net.Listener
	t *testing.T
}

func (l meshTrap) Accept() (net.Conn, error) {
	l.t.Error("the rank meshed with a malformed assignment")
	return nil, errors.New("meshTrap: no mesh")
}

// TestAssignmentRejects: gates the engine must not run, a missing or
// mis-sized circuit, an unbound parameter, and a peer table or rank
// that does not fit the rank count are refused by the worker's check,
// before any mesh.
func TestAssignmentRejects(t *testing.T) {
	h := func(target int, controls ...int) quantum.Gate {
		return quantum.Gate{Name: "h", Target: target, Controls: controls, U: quantum.MatH}
	}
	unbound := quantum.NewCircuit(6).H(0).PRY(3, quantum.P(0))
	cases := map[string]func(as *assignMsg){
		"nil-circuit":       func(as *assignMsg) { as.Spec.Circuit = nil },
		"width-mismatch":    func(as *assignMsg) { as.Spec.Circuit = quantum.GHZ(5) },
		"unbound-parameter": func(as *assignMsg) { as.Spec.Circuit = unbound },
		"peers-not-ranks":   func(as *assignMsg) { as.Peers = append(as.Peers, "127.0.0.1:3", "127.0.0.1:4") },
		"rank-past-peers":   func(as *assignMsg) { as.Rank = 2 },
		"unknown-codec":     func(as *assignMsg) { as.Spec.LossyName = "no-such-codec" },
	}
	for name, g := range map[string]quantum.Gate{
		"target-past-register": h(6),
		"target-negative":      h(-1),
		"control-is-target":    h(2, 2),
		"unknown-kind":         {Kind: 7, Name: "h", Target: 1, U: quantum.MatH},
	} {
		cases[name] = func(as *assignMsg) {
			as.Spec.Circuit = &quantum.Circuit{N: 6, Gates: []quantum.Gate{h(0), g}}
		}
	}
	cfg := core.Config{Qubits: 6, Ranks: 2, Lossless: lossless.New(false), Lossy: szlike.NewB()}
	if _, err := buildSpec(cfg, unbound, Options{}); !errors.Is(err, errUnbound) {
		t.Errorf("the coordinator shipped an unbound circuit: %v", err)
	}
	for name, spoil := range cases {
		t.Run(name, func(t *testing.T) {
			as := assignment(t, quantum.GHZ(6))
			if _, err := as.check(); err != nil {
				t.Fatalf("the unspoiled assignment is refused: %v", err)
			}
			spoil(&as)
			if _, err := as.check(); err == nil {
				t.Fatal("check accepted it")
			}
			if res := runAssignment(meshTrap{t: t}, as); res.Err == "" {
				t.Fatal("the worker ran it")
			}
		})
	}
}

// slowCircuit is sweep-proof pacing material: with DisableSweeps every
// gate runs its own error-barrier collective, keeping all ranks inside
// the mesh for the whole run.
func slowCircuit(gates int) string {
	var b strings.Builder
	b.WriteString("qubits 6\n")
	for i := 0; i < gates; i++ {
		b.WriteString("h 0\n")
	}
	return b.String()
}

// TestWorkerKilledMidRun SIGKILLs one worker while the job is in
// flight and requires the coordinator to surface mpi.ErrRankDied
// within a bound, with its own state untouched.
func TestWorkerKilledMidRun(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	cfg := core.Config{Qubits: 6, Ranks: 2, Workers: 1, BlockAmps: 8, Seed: 1, DisableSweeps: true}
	circ := parseCircuit(t, slowCircuit(400))
	sim, err := core.New(cfg)
	if err != nil {
		t.Fatalf("coordinator sim: %v", err)
	}
	defer sim.Close()

	var mu sync.Mutex
	var victims []*exec.Cmd
	opt := Options{
		WorkerCommand: selfWorker(t),
		JobTimeout:    time.Minute,
		GateDelay:     20 * time.Millisecond,
		onSpawn: func(idx int, cmd *exec.Cmd) {
			mu.Lock()
			victims = append(victims, cmd)
			mu.Unlock()
		},
	}
	killer := time.AfterFunc(500*time.Millisecond, func() {
		mu.Lock()
		defer mu.Unlock()
		if len(victims) > 1 && victims[1].Process != nil {
			victims[1].Process.Kill()
		}
	})
	defer killer.Stop()

	start := time.Now()
	err = Run(sim, circ, opt, nil)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("run succeeded despite a killed worker")
	}
	if !errors.Is(err, mpi.ErrRankDied) {
		t.Fatalf("error %v does not wrap mpi.ErrRankDied", err)
	}
	if elapsed > 30*time.Second {
		t.Fatalf("failure took %v to surface", elapsed)
	}
	if n := sim.GatesRun(); n != 0 {
		t.Fatalf("failed distributed run mutated coordinator state: %d gates recorded", n)
	}
}

// TestAbortKeepsPreRunState cancels via the poll hook mid-run: the
// abort error must come back wrapped and the coordinator state must
// stay pre-run.
func TestAbortKeepsPreRunState(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	cfg := core.Config{Qubits: 6, Ranks: 2, Workers: 1, BlockAmps: 8, Seed: 1, DisableSweeps: true}
	circ := parseCircuit(t, slowCircuit(400))
	sim, err := core.New(cfg)
	if err != nil {
		t.Fatalf("coordinator sim: %v", err)
	}
	defer sim.Close()

	cause := errors.New("client gone")
	start := time.Now()
	var pollMu sync.Mutex
	aborting := false
	go func() {
		time.Sleep(300 * time.Millisecond)
		pollMu.Lock()
		aborting = true
		pollMu.Unlock()
	}()
	err = Run(sim, circ, Options{
		WorkerCommand: selfWorker(t),
		JobTimeout:    time.Minute,
		GateDelay:     20 * time.Millisecond,
	}, func() error {
		pollMu.Lock()
		defer pollMu.Unlock()
		if aborting {
			return cause
		}
		return nil
	})
	if !errors.Is(err, cause) {
		t.Fatalf("error %v does not wrap the abort cause", err)
	}
	if time.Since(start) > 30*time.Second {
		t.Fatalf("abort took %v", time.Since(start))
	}
	if n := sim.GatesRun(); n != 0 {
		t.Fatalf("aborted distributed run mutated coordinator state: %d gates recorded", n)
	}
}
