// Grover under memory pressure: the paper's headline workload. A
// 13-qubit Grover search (8-qubit register + Toffoli-ladder ancillas)
// runs inside a memory budget far below the uncompressed requirement,
// exactly how the 61-qubit run fits 32 EB of state into 768 TB.
//
//	go run ./examples/grover
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"qcsim"
	"qcsim/circuit"
)

func main() {
	const search = 8 // search register width; 2s-3 = 13 qubits total
	marked := uint64(0xA7 & (1<<search - 1))
	iters := circuit.GroverOptimalIterations(search)
	cir := circuit.Grover(search, marked, iters)

	req := qcsim.MemoryRequirement(cir.N)
	budget := int64(req * 0.05) // 5% of the uncompressed requirement
	sim, err := qcsim.New(cir.N,
		qcsim.WithRanks(2),
		qcsim.WithBlockAmps(2048),
		qcsim.WithMemoryBudget(budget/2), // per rank
		qcsim.WithSeed(42),
	)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("Grover: %d qubits, %d gates, %d iterations, marked |%0*b⟩\n",
		cir.N, len(cir.Gates), iters, search, marked)
	fmt.Printf("state requires %s uncompressed; budget %s\n",
		qcsim.FormatBytes(req), qcsim.FormatBytes(float64(budget)))

	start := time.Now()
	res, err := sim.Run(context.Background(), cir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated in %v, peak footprint %s (min ratio %.1f:1)\n",
		time.Since(start).Round(time.Millisecond),
		qcsim.FormatBytes(float64(res.Stats.MaxFootprint)),
		res.Stats.MinCompressionRatio(req))

	// Sample the search register from the simulator's own seeded
	// stream: the marked element dominates.
	samples, err := sim.Sample(200)
	if err != nil {
		log.Fatal(err)
	}
	hits := 0
	for _, v := range samples {
		if v&(1<<search-1) == marked && v>>search == 0 {
			hits++
		}
	}
	fmt.Printf("marked element sampled %d/200 times (fidelity bound %.4f)\n",
		hits, res.FidelityLowerBound)
	if hits < 150 {
		log.Fatalf("amplification failed: only %d hits", hits)
	}
}
