// Command perf is the repository's benchmark: eight workloads, six
// gated end-to-end metrics measured through the public facade, and a
// traced run that attributes the wall-clock to layers. BENCHMARK.json
// at the repository root declares it; README.md in this directory
// explains the workloads, the metrics and how to read the output.
//
// One invocation measures one workload:
//
//	perf --workload qaoa-lossless --seed 1 --seconds 10 --trace 0
//
// and prints, as the last line of standard output, one JSON object
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones, with --trace 1 the per-layer ones.
// Progress and a human-readable summary go to standard error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"qcsim"
)

// result is the line the benchmark contract asks for.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// options are one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	traceOut string // Chrome trace file of the traced rep; "" = <tmp>/trace-<workload>.json
	tmp      string // where spill files, server data dirs and the trace go
	sabotage bool   // tests only: expect a wrong answer, to see the failure counted
}

// measure runs one workload and returns its result line.
func measure(ctx context.Context, o options) (*result, error) {
	w := findWorkload(o.workload)
	if w == nil {
		return nil, fmt.Errorf("perf: unknown workload %q", o.workload)
	}
	chk := &checker{sabotage: o.sabotage}
	var m *metricSet
	if w.kind == kindServe {
		s, err := newServeMix(w, o.seed, o.smoke)
		if err != nil {
			return nil, err
		}
		if m, err = s.run(ctx, o.seconds, o.trace, chk); err != nil {
			return nil, err
		}
	} else {
		e, err := newEngine(w, o.seed, o.smoke, o.tmp)
		if err != nil {
			return nil, err
		}
		if o.trace {
			path := o.traceOut
			if path == "" {
				path = filepath.Join(o.tmp, "trace-"+w.name+".json")
			}
			m, err = e.perLayerRun(ctx, o.seconds, path, chk)
		} else {
			m, err = e.endToEndRun(ctx, o.seconds, chk)
		}
		e.close(chk)
		if err != nil {
			return nil, err
		}
	}
	if o.trace {
		m.set("failed_frac", float64(chk.failed)/float64(chk.attempted))
	}
	return &result{Correct: chk.failed == 0, Attempted: chk.attempted, Failed: chk.failed, Metrics: m.result()}, nil
}

// serveRankIfSpawned turns the process into a rank worker when the
// TCP-transport replay spawned it: that replay re-executes this binary
// once per rank, with the coordinator's address in the environment.
func serveRankIfSpawned() {
	if addr := os.Getenv("QCSIM_COORD_ADDR"); addr != "" {
		if err := qcsim.RankWorker(addr); err != nil {
			fmt.Fprintln(os.Stderr, "perf: rank worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
}

func main() {
	serveRankIfSpawned()

	var o options
	var trace int
	var scale string
	flag.StringVar(&o.workload, "workload", "", "workload to run (see BENCHMARK.json), or \"all\"")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "how long to measure")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.StringVar(&scale, "scale", "full", "full, or smoke (<= 10 qubits, what the tests run)")
	flag.StringVar(&o.traceOut, "trace-out", "", "where --trace 1 writes the Chrome trace (default .bench_build/tmp/trace-<workload>.json)")
	flag.Parse()
	o.trace, o.smoke = trace != 0, scale == "smoke"

	// Everything the run writes goes under .bench_build/tmp in the
	// working directory, including what libraries put in os.TempDir.
	tmp, err := filepath.Abs(filepath.Join(".bench_build", "tmp"))
	if err == nil {
		err = os.MkdirAll(tmp, 0o755)
	}
	if err == nil {
		err = os.Setenv("TMPDIR", tmp)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		os.Exit(2)
	}
	o.tmp = tmp

	names := []string{o.workload}
	if o.workload == "all" {
		names = names[:0]
		for _, w := range workloads() {
			names = append(names, w.name)
		}
	}
	//qclint:allow ctxflow main mints the root context of the benchmark
	ctx := context.Background()
	failed := false
	for _, name := range names {
		o.workload = name
		res, err := measure(ctx, o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perf:", err)
			os.Exit(2)
		}
		printTable(name, res, o.trace)
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perf:", err)
			os.Exit(2)
		}
		fmt.Println(string(line))
		failed = failed || !res.Correct
	}
	if failed {
		os.Exit(1)
	}
}

// printTable writes the metrics of one run to standard error, one per
// line, in the order the tables declare them.
func printTable(name string, res *result, trace bool) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	fmt.Fprintf(os.Stderr, "%s: %d operations, %d failed\n", name, res.Attempted, res.Failed)
	for _, d := range defs {
		fmt.Fprintf(os.Stderr, "  %-38s %16.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
}
