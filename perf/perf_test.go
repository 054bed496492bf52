package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"qcsim/circuit"
	"qcsim/internal/quantum"
)

// benchmarkFile is the part of BENCHMARK.json the program must agree
// with.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestMain keeps everything the runs write — including what libraries
// put in os.TempDir — in one directory that is removed at the end, and
// lets the TCP-transport replay use the test binary as its rank worker.
func TestMain(m *testing.M) {
	serveRankIfSpawned()
	tmp, err := os.MkdirTemp("", "perf-test-*")
	if err != nil {
		panic(err)
	}
	os.Setenv("TMPDIR", tmp)
	code := m.Run()
	os.RemoveAll(tmp)
	os.Exit(code)
}

// smoke runs one workload at smoke scale.
func smoke(t *testing.T, o options) *result {
	t.Helper()
	o.smoke, o.tmp = true, t.TempDir()
	res, err := measure(context.Background(), o)
	if err != nil {
		t.Fatalf("%s (trace %v): %v", o.workload, o.trace, err)
	}
	return res
}

// TestDeclaredMetrics holds the program to BENCHMARK.json: the same
// workloads with the same reasons, and for every workload in both
// trace modes exactly the declared metric names, each once, with the
// declared unit — and not a single failed operation.
func TestDeclaredMetrics(t *testing.T) {
	bf := readBenchmarkFile(t)
	ws := workloads()
	if len(bf.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(bf.Workloads), len(ws))
	}
	for i, w := range ws {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.name, w.why)
		}
	}
	declared := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range bf.EndToEnd {
		declared[false][m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		declared[true][m.Name] = m.Unit
	}
	if len(declared[false]) != len(bf.EndToEnd) || len(declared[true]) != len(bf.PerLayer) {
		t.Error("BENCHMARK.json declares a metric name twice")
	}

	for _, w := range ws {
		for _, trace := range []bool{false, true} {
			res := smoke(t, options{workload: w.name, seed: 1, trace: trace})
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (trace %v): %d of %d operations failed", w.name, trace, res.Failed, res.Attempted)
			}
			want := declared[trace]
			for name, mv := range res.Metrics {
				if unit, ok := want[name]; !ok {
					t.Errorf("%s (trace %v): emits undeclared metric %q", w.name, trace, name)
				} else if unit != mv.Unit {
					t.Errorf("%s (trace %v): %s has unit %q, BENCHMARK.json says %q", w.name, trace, name, mv.Unit, unit)
				}
			}
			for name := range want {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("%s (trace %v): declared metric %q is not emitted", w.name, trace, name)
				}
			}
			if !trace {
				for name, mv := range res.Metrics {
					if mv.Value == 0 {
						t.Errorf("%s: end-to-end metric %s is 0", w.name, name)
					}
				}
			}
		}
	}
}

// exactMetrics repeat to the last bit for one seed: counts, bytes of
// compressed state, and fidelities. (Times, rates, heap readings and
// the spill tier's race-dependent counters do not.)
var exactMetrics = map[string]bool{
	"peak_footprint_bytes": true, "fidelity_lower_bound": true, "fidelity_measured": true,
	"quantum.gates": true, "quantum.sweeps": true, "quantum.sweep_gates": true,
	"compress.lossless.enc_calls": true, "compress.lossless.dec_calls": true, "compress.lossless.ratio": true,
	"compress.lossy.enc_calls": true, "compress.lossy.dec_calls": true, "compress.lossy.ratio": true,
	"compress.lossy.bound_violations": true,
	"core.cache_lookups":              true, "core.cache_hit_ratio": true, "core.codec_passes_saved": true,
	"core.codec_passes_shared": true, "core.variants": true, "core.escalations": true, "core.final_level": true,
	"core.sampler.dec_calls": true,
	"mpi.sendrecv_calls":     true, "mpi.collective_calls": true, "mpi.bytes_moved": true,
	"server.jobs": true, "server.rejects": true, "failed_frac": true,
}

// TestSeedDeterminism: one seed, run twice, gives identical exact
// metrics; another seed gives different circuits but the same metric
// set and the same amount of work.
func TestSeedDeterminism(t *testing.T) {
	for _, w := range workloads() {
		for _, trace := range []bool{false, true} {
			a := smoke(t, options{workload: w.name, seed: 7, trace: trace})
			b := smoke(t, options{workload: w.name, seed: 7, trace: trace})
			c := smoke(t, options{workload: w.name, seed: 8, trace: trace})
			for name := range a.Metrics {
				if exactMetrics[name] && a.Metrics[name].Value != b.Metrics[name].Value {
					t.Errorf("%s: %s is %v and then %v at the same seed", w.name, name, a.Metrics[name].Value, b.Metrics[name].Value)
				}
				if _, ok := c.Metrics[name]; !ok {
					t.Errorf("%s: seed 8 does not emit %s", w.name, name)
				}
			}
			if len(c.Metrics) != len(a.Metrics) {
				t.Errorf("%s: seed 7 emits %d metrics, seed 8 %d", w.name, len(a.Metrics), len(c.Metrics))
			}
			if trace && a.Metrics["quantum.gates"].Value != c.Metrics["quantum.gates"].Value {
				t.Errorf("%s: %v gates at seed 7, %v at seed 8", w.name, a.Metrics["quantum.gates"].Value, c.Metrics["quantum.gates"].Value)
			}
		}
		if w.circuit == nil {
			continue
		}
		g := w.geo(w.full)
		if same(w.circuit(g, 7), w.circuit(g, 8)) {
			t.Errorf("%s: seeds 7 and 8 generate the same circuit", w.name)
		}
		if !same(w.circuit(g, 7), w.circuit(g, 7)) {
			t.Errorf("%s: seed 7 generates two different circuits", w.name)
		}
	}
}

func same(a, b *circuit.Circuit) bool { return reflect.DeepEqual(a.Gates, b.Gates) }

// TestSeedKeepsWork: at full scale, whatever the seed, the generated
// circuit has the same sweep plan — the same gates block-local, the
// same gates crossing blocks — so seeds are comparable.
func TestSeedKeepsWork(t *testing.T) {
	for _, w := range workloads() {
		if w.circuit == nil {
			continue
		}
		g := w.geo(w.full)
		plan := func(seed int64) []bool {
			var local []bool
			for _, gate := range w.circuit(g, seed).Gates {
				local = append(local, quantum.BlockLocal(gate, g.offsetBits()))
			}
			return local
		}
		want := plan(1)
		for seed := int64(2); seed <= 12; seed++ {
			if !reflect.DeepEqual(plan(seed), want) {
				t.Errorf("%s: seed %d changes which gates are block-local", w.name, seed)
			}
		}
	}
}

// TestWrongExpectationFails: expecting a wrong answer must count a
// failed operation and make the result incorrect (main then exits
// with a non-zero code).
func TestWrongExpectationFails(t *testing.T) {
	for _, name := range []string{"grover-cache", "qaoa-lossless", "qaoa-grad", "sample-read", "serve-mix"} {
		res := smoke(t, options{workload: name, seed: 1, sabotage: true})
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: a wrong expectation still passes (%d of %d failed)", name, res.Failed, res.Attempted)
		}
	}
}
