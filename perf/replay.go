package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"qcsim"
	"qcsim/internal/blockstore"
	"qcsim/internal/compress"
	"qcsim/internal/core"
	"qcsim/internal/mpi"
	"qcsim/internal/mpi/tcpnet"
	"qcsim/internal/quantum"
)

// replays measures, in isolation and on the real blocks the traced rep
// ended with, the layers a whole run only shows mixed together: the
// circuit builders, checkpoint streaming, the block stores, each rung
// of the lossy ladder, and both transports.
func (e *engine) replays(ctx context.Context, m *metricSet, tr *tracedRep, chk *checker) error {
	t0 := time.Now()
	in := e.generate()
	m.set("quantum.build_s", time.Since(t0).Seconds())
	if gates := shapeGates(in); gates != nil {
		t0 = time.Now()
		quantum.PlanSweeps(gates, e.g.offsetBits())
		m.set("quantum.plan_s", time.Since(t0).Seconds())
		m.set("quantum.gates", float64(len(gates)))
	}

	final := tr.final()
	if err := e.replayCheckpoint(m, final); err != nil {
		return err
	}
	blobs, _, err := final.ExportRankBlocks(0)
	if err != nil {
		return err
	}
	put, get := replayStore(blockstore.NewRAM(len(blobs)), blobs)
	m.set("blockstore.ram.put_ns", put)
	m.set("blockstore.ram.get_ns", get)

	if e.g.budget > 0 {
		if err := e.replayLadder(m, final); err != nil {
			return err
		}
	}
	if e.g.spillBudget > 0 {
		if err := e.replayTiered(m, blobs); err != nil {
			return err
		}
	}
	if e.g.ranks > 1 {
		if err := e.replayTransports(m); err != nil {
			return err
		}
		if err := e.replayTCPRun(ctx, m, in, chk); err != nil {
			return err
		}
	}
	return nil
}

// shapeGates is the gate list whose sweep plan the engine computes:
// the circuit itself, or any binding of the ansatz (all share one
// shape). The sample workload plans nothing.
func shapeGates(in inputs) []quantum.Gate {
	if in.circ == nil {
		return nil
	}
	if in.values == nil {
		return in.circ.Gates
	}
	bound, err := in.circ.Bind(in.values)
	if err != nil {
		return nil
	}
	return bound.Gates
}

// replayCheckpoint streams the final state out through Save and back
// in through Load, both against memory.
func (e *engine) replayCheckpoint(m *metricSet, sim *core.Simulator) error {
	var buf bytes.Buffer
	t0 := time.Now()
	if err := sim.Save(&buf); err != nil {
		return fmt.Errorf("perf: checkpoint replay: %w", err)
	}
	save := time.Since(t0)
	cfg, err := e.g.config(e.seed, 1, e.spillDir)
	if err != nil {
		return err
	}
	fresh, err := core.New(cfg)
	if err != nil {
		return err
	}
	defer fresh.Close()
	size := int64(buf.Len())
	t0 = time.Now()
	if err := fresh.Load(&buf); err != nil {
		return fmt.Errorf("perf: checkpoint replay: %w", err)
	}
	m.set("core.checkpoint.save_mbps", mbps(size, save))
	m.set("core.checkpoint.load_mbps", mbps(size, time.Since(t0)))
	return nil
}

// replayStore puts every blob into the RAM store and gets every blob
// back, repeating the two passes until there is enough time to divide,
// and returns the mean nanoseconds per Put and per Get. (The RAM store
// cannot fail, so the errors are dropped.)
func replayStore(st blockstore.Store, blobs [][]byte) (putNs, getNs float64) {
	defer st.Close()
	var put, get time.Duration
	passes := 0
	for ; passes < 1000 && (passes < 3 || put+get < 20*time.Millisecond); passes++ {
		t0 := time.Now()
		for b, blob := range blobs {
			_ = st.Put(b, blob)
		}
		put += time.Since(t0)
		t0 = time.Now()
		for b := range blobs {
			_, _ = st.Get(b)
		}
		get += time.Since(t0)
	}
	n := float64(passes * len(blobs))
	return float64(put) / n, float64(get) / n
}

// replayTiered runs the harvested blobs through a tiered store whose
// resident budget is a quarter of their size: Put with eviction, Get
// of spilled blocks on demand, and Get of blocks the prefetcher was
// told about in time.
func (e *engine) replayTiered(m *metricSet, blobs [][]byte) error {
	var total int64
	for _, b := range blobs {
		total += int64(len(b))
	}
	st, err := blockstore.NewTiered(len(blobs), e.spillDir, "replay", total/4)
	if err != nil {
		return fmt.Errorf("perf: tiered replay: %w", err)
	}
	defer st.Close()
	t0 := time.Now()
	for b, blob := range blobs {
		if err := st.Put(b, blob); err != nil {
			return fmt.Errorf("perf: tiered replay: %w", err)
		}
	}
	m.set("blockstore.tiered.put_ns", float64(time.Since(t0))/float64(len(blobs)))

	// Each Get is timed alone and filed by what the store says it did.
	type tally struct{ ns, n float64 }
	pass := func() (demand, staged tally, err error) {
		for b := range blobs {
			before := st.Stats()
			t0 := time.Now()
			if _, err := st.Get(b); err != nil {
				return demand, staged, fmt.Errorf("perf: tiered replay: %w", err)
			}
			d := float64(time.Since(t0))
			after := st.Stats()
			switch {
			case after.SpillReads > before.SpillReads:
				demand.ns, demand.n = demand.ns+d, demand.n+1
			case after.PrefetchHits > before.PrefetchHits:
				staged.ns, staged.n = staged.ns+d, staged.n+1
			}
		}
		return demand, staged, nil
	}
	demand, _, err := pass()
	if err != nil {
		return err
	}
	order := make([]int, len(blobs))
	for b := range order {
		order[b] = b
	}
	st.PrefetchHint(order)
	time.Sleep(20 * time.Millisecond) // let the prefetcher stage the head of the order
	_, staged, err := pass()
	if err != nil {
		return err
	}
	m.set("blockstore.tiered.get_demand_ns", ratio(demand.ns, demand.n))
	m.set("blockstore.tiered.get_prefetched_ns", ratio(staged.ns, staged.n))
	return nil
}

// replayLadder encodes and decodes the final state's blocks at each
// rung of the error-bound ladder.
func (e *engine) replayLadder(m *metricSet, sim *core.Simulator) error {
	cfg := sim.Config()
	codec := cfg.Lossy.(*tracedCodec).Codec
	amps, err := sim.FullState()
	if err != nil {
		return fmt.Errorf("perf: ladder replay: %w", err)
	}
	ba := cfg.BlockAmps
	blocks := make([][]float64, 0, len(amps)/ba)
	for off := 0; off+ba <= len(amps); off += ba {
		blk := make([]float64, 2*ba)
		for i, a := range amps[off : off+ba] {
			blk[2*i], blk[2*i+1] = real(a), imag(a)
		}
		blocks = append(blocks, blk)
	}
	back := make([]float64, 2*ba)
	for l, bound := range cfg.ErrorLevels {
		opt := compress.Options{Mode: compress.PointwiseRelative, Bound: bound}
		packed := make([][]byte, len(blocks))
		var raw, size int64
		t0 := time.Now()
		for i, blk := range blocks {
			if packed[i], err = codec.Compress(nil, blk, opt); err != nil {
				return fmt.Errorf("perf: ladder replay level %d: %w", l+1, err)
			}
			raw += int64(8 * len(blk))
			size += int64(len(packed[i]))
		}
		enc := time.Since(t0)
		t0 = time.Now()
		for _, p := range packed {
			if err := codec.Decompress(back, p); err != nil {
				return fmt.Errorf("perf: ladder replay level %d: %w", l+1, err)
			}
		}
		dec := time.Since(t0)
		prefix := fmt.Sprintf("compress.lossy.l%d", l+1)
		m.set(prefix+".enc_mbps", mbps(raw, enc))
		m.set(prefix+".dec_mbps", mbps(raw, dec))
		m.set(prefix+".ratio", ratio(float64(raw), float64(size)))
	}
	return nil
}

// exchangeBench times block-sized SendRecv round trips and allreduces
// on rank 0 of a two-rank world.
func (e *engine) exchangeBench(c mpi.Comm, out *[2]float64) {
	payload := make([]float64, 2*e.g.blockAmps)
	recv := make([]float64, len(payload))
	const exchanges, reductions = 200, 1000
	c.Barrier()
	t0 := time.Now()
	for i := 0; i < exchanges; i++ {
		c.SendRecv(1-c.Rank(), payload, recv)
	}
	sendrecv := time.Since(t0)
	t0 = time.Now()
	for i := 0; i < reductions; i++ {
		c.AllreduceSum(1)
	}
	if c.Rank() == 0 {
		out[0] = float64(sendrecv.Microseconds()) / exchanges
		out[1] = float64(time.Since(t0).Microseconds()) / reductions
	}
}

// replayTransports runs exchangeBench over the in-process transport
// and over a loopback TCP mesh.
func (e *engine) replayTransports(m *metricSet) error {
	var inproc, tcp [2]float64
	if _, err := mpi.Run(2, func(c mpi.Comm) { e.exchangeBench(c, &inproc) }); err != nil {
		return fmt.Errorf("perf: in-process transport replay: %w", err)
	}

	lns := make([]net.Listener, 2)
	addrs := make([]string, 2)
	for r := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("perf: tcp transport replay: %w", err)
		}
		defer ln.Close()
		lns[r], addrs[r] = ln, ln.Addr().String()
	}
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r := range lns {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			comm, err := tcpnet.Mesh(lns[r], r, addrs, time.Now().Add(10*time.Second))
			if err != nil {
				errs[r] = err
				return
			}
			defer comm.Close()
			_, errs[r] = tcpnet.NewLauncher(comm).Launch(2, func(c mpi.Comm) { e.exchangeBench(c, &tcp) })
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("perf: tcp transport replay: %w", err)
		}
	}
	m.set("mpi.inproc.sendrecv_us", inproc[0])
	m.set("mpi.inproc.allreduce_us", inproc[1])
	m.set("mpi.tcp.sendrecv_us", tcp[0])
	m.set("mpi.tcp.allreduce_us", tcp[1])
	return nil
}

// replayTCPRun runs the workload's circuit once with every rank a real
// process (this binary, re-executed as a rank worker) and once in
// process, both on the RAM store; the difference is what spawning,
// shipping the state and merging it back cost.
func (e *engine) replayTCPRun(ctx context.Context, m *metricSet, in inputs, chk *checker) error {
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("perf: tcp run replay: %w", err)
	}
	plain := e.g
	plain.spillBudget = 0
	run := func(extra ...qcsim.Option) (time.Duration, []complex128, error) {
		sim, err := qcsim.New(plain.qubits, append(plain.options(e.seed, 0, ""), extra...)...)
		if err != nil {
			return 0, nil, err
		}
		defer sim.Close()
		t0 := time.Now()
		if _, err := sim.Run(ctx, in.circ); err != nil {
			return 0, nil, err
		}
		d := time.Since(t0)
		full, err := sim.FullState()
		return d, full, err
	}
	local, want, err := run()
	if err != nil {
		return fmt.Errorf("perf: tcp run replay: %w", err)
	}
	remote, got, err := run(qcsim.WithTransport(qcsim.TransportTCP), qcsim.WithWorkerCommand(exe))
	if err != nil {
		return fmt.Errorf("perf: tcp run replay: %w", err)
	}
	chk.op(sameAmps(got, want), "%s: the TCP-transport run differs from the in-process run", e.w.name)
	m.set("distrib.tcp_overhead_s", (remote - local).Seconds())
	return nil
}
