package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"time"

	"qcsim"
	"qcsim/circuit"
	"qcsim/internal/core"
	"qcsim/internal/mpi"
	"qcsim/internal/quantum"
)

// tracedRep is one serial rep (one worker per rank) run on the
// geometry's core.Config with the codecs and the communicator wrapped,
// so that every call through those seams is a span.
type tracedRep struct {
	sim    *core.Simulator // final state; the caller closes it
	clones []*core.Simulator
	rec    *recorder
	lossy  *tracedCodec
	rep    interval
	// executing is when the engine was executing gates: the whole
	// rep, or for a batch the part between cloning the variants and
	// reading their energies — the codec calls of those two steps are
	// inspection, which the engine charges to no Stats.
	executing interval
	sweeps    []span
	// stats covers the rep only (the codec calls of New are
	// subtracted); totals holds the absolute counters the facade
	// reports, for the comparison with the untraced serial rep.
	stats, totals core.Stats
	ledger        float64
	bytesMoved    int64
	ampUpdates    float64 // gates x 2^n, summed over variants
	// what the operation returned, for the comparison with the facade
	outcomes    []uint64
	build, draw time.Duration
	energy      float64
	grad        []float64
}

func (t *tracedRep) wall() time.Duration { return t.rep.end - t.rep.start }

// final is the simulator holding the state the operation produced:
// the base variant of a batch, the simulator itself otherwise.
func (t *tracedRep) final() *core.Simulator {
	if len(t.clones) > 0 {
		return t.clones[0]
	}
	return t.sim
}

func (t *tracedRep) close() {
	for _, c := range t.clones {
		c.Close()
	}
	t.sim.Close()
}

// traced runs the workload's operation once on the wrapped
// configuration, mirroring what the facade does for it.
func (e *engine) traced(in inputs) (*tracedRep, error) {
	cfg, err := e.g.config(e.seed, 1, e.spillDir)
	if err != nil {
		return nil, err
	}
	t := &tracedRep{rec: newRecorder()}
	t.lossy = &tracedCodec{Codec: cfg.Lossy, rec: t.rec, enc: spanLossyEnc, dec: spanLossyDec, checkEvery: 64}
	cfg.Lossy = t.lossy
	cfg.Lossless = &tracedCodec{Codec: cfg.Lossless, rec: t.rec, enc: spanLosslessEnc, dec: spanLosslessDec}
	cfg.Launcher = tracedLauncher{mpi.Goroutines{}, t.rec}
	if t.sim, err = core.New(cfg); err != nil {
		return nil, err
	}
	fail := func(err error) (*tracedRep, error) {
		t.close()
		return nil, err
	}
	if e.w.kind == kindSample {
		if err := t.sim.Load(bytes.NewReader(e.ckpt)); err != nil {
			return fail(err)
		}
	}
	before := t.sim.Stats()
	t.rec.spans = t.rec.spans[:0] // New and Load are set-up, not the rep

	since := func() time.Duration { return time.Since(t.rec.epoch) }
	var gates []quantum.Gate
	var gateAt []time.Duration
	ctl := core.RunControl{OnGate: func(gi, total int, _ quantum.Gate) { gateAt[gi] = since() }}
	t.rep.start = since()
	switch e.w.kind {
	case kindRun:
		gates, gateAt = in.circ.Gates, make([]time.Duration, len(in.circ.Gates))
		if err := t.sim.RunControlled(in.circ, ctl); err != nil {
			return fail(err)
		}
		t.stats = t.sim.Stats()
		t.ampUpdates = float64(len(gates)) * math.Exp2(float64(e.g.qubits))

	case kindGrad:
		circuits, occs, err := shiftCircuits(in)
		if err != nil {
			return fail(err)
		}
		gates, gateAt = circuits[0].Gates, make([]time.Duration, len(circuits[0].Gates))
		for v := range circuits {
			clone, err := t.sim.Clone(core.VariantSeed(e.seed, v))
			if err != nil {
				return fail(err)
			}
			t.clones = append(t.clones, clone)
		}
		t.executing.start = since()
		if err := core.RunBatch(t.clones, circuits, ctl); err != nil {
			return fail(err)
		}
		t.executing.end = since()
		obs := qcsim.MaxCutObservable(in.edges)
		energies := make([]float64, len(t.clones))
		for v, c := range t.clones {
			en, err := c.DiagonalExpectation(obs.Z, obs.ZZ)
			if err != nil {
				return fail(err)
			}
			energies[v] = en + obs.Const
			t.stats = t.stats.Add(c.Stats())
		}
		t.energy, t.grad = shiftGradient(in.circ.NumParams(), occs, energies)
		t.ampUpdates = float64(len(gates)) * math.Exp2(float64(e.g.qubits)) * float64(len(circuits))

	case kindSample:
		sp, err := t.sim.NewSampler(qcsim.DefaultSampleCache)
		if err != nil {
			return fail(err)
		}
		t.build = since() - t.rep.start
		if t.outcomes, err = sp.Sample(nil, e.shots); err != nil {
			return fail(err)
		}
		t.stats = t.sim.Stats()
	}
	t.rep.end = since()
	t.draw = t.wall() - t.build
	if e.w.kind != kindGrad {
		t.executing = t.rep
	}

	t.totals = t.stats
	if e.w.kind != kindGrad { // clones start their stats at zero
		t.stats.CompressTime -= before.CompressTime
		t.stats.DecompressTime -= before.DecompressTime
		t.stats.CompressCalls -= before.CompressCalls
		t.stats.DecompressCalls -= before.DecompressCalls
	}
	t.ledger, t.bytesMoved = t.sim.FidelityLowerBound(), t.sim.BytesMoved()
	for _, c := range t.clones {
		t.ledger = math.Min(t.ledger, c.FidelityLowerBound())
	}

	// The engine reports progress after each sweep, for all of its
	// gates at once, so a sweep's span runs from the previous report
	// to its own.
	if e.w.kind == kindSample {
		mid := t.rep.start + t.build
		t.sweeps = []span{
			{name: "sampler.build", iv: interval{t.rep.start, mid}},
			{name: "sampler.draw", iv: interval{mid, t.rep.end}},
		}
	} else {
		cursor := t.rep.start
		for _, sw := range quantum.PlanSweeps(gates, e.g.offsetBits()) {
			name := fmt.Sprintf("%s (cross-block)", gates[sw.Start].Name)
			if sw.Local {
				name = fmt.Sprintf("sweep of %d local gates", sw.Len())
			}
			end := gateAt[sw.End-1]
			t.sweeps = append(t.sweeps, span{name: name, iv: interval{cursor, end}})
			cursor = end
		}
	}
	return t, nil
}

// shiftCircuits lists the circuits of a parameter-shift gradient in
// the order Simulator.Gradient runs them: the unshifted binding, then
// +π/2 and -π/2 per parametric gate.
func shiftCircuits(in inputs) ([]*circuit.Circuit, []circuit.ParamOccurrence, error) {
	base, err := in.circ.Bind(in.values)
	if err != nil {
		return nil, nil, err
	}
	occs := in.circ.ParamOccurrences()
	circuits := []*circuit.Circuit{base}
	for _, occ := range occs {
		for _, d := range []float64{math.Pi / 2, -math.Pi / 2} {
			c, err := in.circ.BindShift(in.values, occ.Gate, d)
			if err != nil {
				return nil, nil, err
			}
			circuits = append(circuits, c)
		}
	}
	return circuits, occs, nil
}

// shiftGradient combines the energies of shiftCircuits' circuits into
// the energy at the unshifted binding and the gradient, by the
// parameter-shift rule as Simulator.Gradient applies it.
func shiftGradient(params int, occs []circuit.ParamOccurrence, energies []float64) (float64, []float64) {
	grad := make([]float64, params)
	for i, occ := range occs {
		grad[occ.Index] += occ.Scale * (energies[1+2*i] - energies[2+2*i]) / 2
	}
	return energies[0], grad
}

// perLayerRun is --trace 1 for an engine workload. Rounds of three
// reps — parallel through the facade, serial through the facade,
// serial and traced — repeat while another round still fits into
// `seconds`; the fastest serial and the fastest traced rep are kept.
// Then the layers that the run only touches lightly are replayed in
// isolation on the blocks the traced rep ended with.
func (e *engine) perLayerRun(ctx context.Context, secs float64, tracePath string, chk *checker) (*metricSet, error) {
	e.detail = true
	if err := e.prepare(ctx); err != nil {
		return nil, err
	}
	warm, err := e.rep(ctx, 0)
	if err != nil {
		return nil, err
	}
	warm.sim.Close()

	var par []*repOut
	var serial *repOut
	var tr *tracedRep
	defer func() {
		if serial != nil {
			serial.sim.Close()
		}
		if tr != nil {
			tr.close()
		}
	}()
	start := time.Now()
	var round time.Duration // how long the last round took
	for len(par) == 0 || (time.Since(start)+round).Seconds() <= secs {
		roundStart := time.Now()
		p, err := e.rep(ctx, 0)
		chk.op(err == nil, "%s: parallel rep: %v", e.w.name, err)
		if err != nil {
			return nil, err
		}
		p.sim.Close()
		par = append(par, p)

		s, err := e.rep(ctx, 1)
		chk.op(err == nil, "%s: serial rep: %v", e.w.name, err)
		if err != nil {
			return nil, err
		}
		if serial == nil || s.run < serial.run {
			if serial != nil {
				serial.sim.Close()
			}
			serial = s
		} else {
			s.sim.Close()
		}

		t, err := e.traced(s.in)
		chk.op(err == nil, "%s: traced rep: %v", e.w.name, err)
		if err != nil {
			return nil, err
		}
		if tr == nil || t.wall() < tr.wall() {
			if tr != nil {
				tr.close()
			}
			tr = t
		} else {
			t.close()
		}
		round = time.Since(roundStart)
	}

	m := newMetricSet(perLayer)
	e.compareWithFacade(serial, tr, chk)
	e.facadeMetrics(m, par, serial)
	e.spanMetrics(m, tr, chk)
	m.set("trace.overhead_frac", tr.wall().Seconds()/serial.run.Seconds()-1)
	if err := writeTrace(tracePath, e.w.name, tr.rep, tr.sweeps, tr.rec); err != nil {
		return nil, err
	}
	if err := e.replays(ctx, m, tr, chk); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "%s: serial %.4f s = codec %.4f + comm %.4f + kernel %.4f + unattributed %.4f (%.1f %%); traced +%.1f %%; trace in %s\n",
		e.w.name, tr.wall().Seconds(),
		m.get("compress.lossless.enc_busy_s")+m.get("compress.lossless.dec_busy_s")+m.get("compress.lossy.enc_busy_s")+m.get("compress.lossy.dec_busy_s"),
		m.get("mpi.sendrecv_busy_s")+m.get("mpi.collective_busy_s"), m.get("core.kernel_s"), m.get("core.unattributed_s"),
		100*m.get("core.unattributed_frac"), 100*m.get("trace.overhead_frac"), tracePath)
	return m, nil
}

// compareWithFacade holds the traced rep to the untraced serial rep
// through the facade: same results, same deterministic counters. That
// they agree shows the hand-built core.Config is the configuration
// the facade resolves, and that tracing changes nothing but time.
func (e *engine) compareWithFacade(serial *repOut, tr *tracedRep, chk *checker) {
	switch e.w.kind {
	case kindRun:
		a, b := serial.res.Stats, tr.totals
		type counter struct {
			name string
			a, b int64
		}
		for _, c := range []counter{
			{"CompressCalls", a.CompressCalls, b.CompressCalls},
			{"DecompressCalls", a.DecompressCalls, b.DecompressCalls},
			{"MaxFootprint", a.MaxFootprint, b.MaxFootprint},
			{"FinalLevel", int64(a.FinalLevel), int64(b.FinalLevel)},
			{"Escalations", int64(a.Escalations), int64(b.Escalations)},
			{"CacheLookups", a.CacheLookups, b.CacheLookups},
			{"CacheHits", a.CacheHits, b.CacheHits},
			{"Sweeps", int64(a.Sweeps), int64(b.Sweeps)},
			{"SweepGates", int64(a.SweepGates), int64(b.SweepGates)},
			{"CodecPassesSaved", a.CodecPassesSaved, b.CodecPassesSaved},
			{"BytesMoved", serial.sim.BytesMoved(), tr.bytesMoved},
			{"ledger bits", int64(math.Float64bits(serial.res.FidelityLowerBound)), int64(math.Float64bits(tr.ledger))},
		} {
			chk.op(c.a == c.b, "%s: %s is %d through the facade, %d traced", e.w.name, c.name, c.a, c.b)
		}
	case kindGrad:
		same := math.Float64bits(serial.grad.Energy) == math.Float64bits(tr.energy) && len(serial.grad.Grad) == len(tr.grad)
		for i := 0; same && i < len(tr.grad); i++ {
			same = math.Float64bits(serial.grad.Grad[i]) == math.Float64bits(tr.grad[i])
		}
		chk.op(same, "%s: traced batch gives a different energy or gradient than Simulator.Gradient", e.w.name)
		chk.op(serial.grad.Evaluations == len(tr.clones), "%s: %d evaluations through the facade, %d traced", e.w.name, serial.grad.Evaluations, len(tr.clones))
	case kindSample:
		chk.op(hashOutcomes(serial.outcomes) == hashOutcomes(tr.outcomes), "%s: traced sampler drew different outcomes than Simulator.Sampler", e.w.name)
	}
}

// facadeMetrics fills the qcsim.* rows from the untraced reps.
func (e *engine) facadeMetrics(m *metricSet, par []*repOut, serial *repOut) {
	var runs, news, cpus, mallocs, allocated []float64
	for _, p := range par {
		runs = append(runs, p.run.Seconds())
		news = append(news, p.setup.Seconds())
		cpus = append(cpus, p.cpu.Seconds())
		mallocs = append(mallocs, float64(p.mallocs))
		allocated = append(allocated, float64(p.allocated))
	}
	m.set("qcsim.new_s", percentile(news, 50))
	m.set("qcsim.prepare_s", e.prepareT.Seconds())
	m.set("qcsim.run_median_s", percentile(runs, 50))
	m.set("qcsim.run_cpu_s", percentile(cpus, 50))
	m.set("qcsim.serial_run_s", serial.run.Seconds())
	m.set("qcsim.parallel_speedup", serial.run.Seconds()/percentile(runs, 25))
	m.set("qcsim.allocs_per_run", percentile(mallocs, 50))
	m.set("qcsim.alloc_bytes_per_run", percentile(allocated, 50))
	if e.w.kind == kindSample {
		m.set("sample_shots_per_s", float64(e.shots)/percentile(runs, 25))
	}
}

// spanMetrics fills the rows measured on the traced rep: the codec and
// communicator spans, the engine's own Stats, and the split of the
// serial wall-clock into codec + comm + kernel + unattributed. With R
// ranks running side by side every busy time is the mean over ranks,
// so the four parts still sum to the wall-clock.
func (e *engine) spanMetrics(m *metricSet, tr *tracedRep, chk *checker) {
	ranks := float64(e.g.ranks)
	wall := tr.wall().Seconds()
	var codecBusy, commBusy time.Duration
	codec := func(prefix, encName, decName string) {
		enc, dec := tr.rec.totals(encName), tr.rec.totals(decName)
		m.set(prefix+".enc_calls", float64(enc.calls))
		m.set(prefix+".dec_calls", float64(dec.calls))
		m.set(prefix+".enc_busy_s", enc.busy.Seconds()/ranks)
		m.set(prefix+".dec_busy_s", dec.busy.Seconds()/ranks)
		m.set(prefix+".enc_mbps", mbps(enc.raw, enc.busy))
		m.set(prefix+".dec_mbps", mbps(dec.raw, dec.busy))
		m.set(prefix+".ratio", ratio(float64(enc.raw), float64(enc.packed)))
		codecBusy += enc.busy + dec.busy
	}
	codec("compress.lossless", spanLosslessEnc, spanLosslessDec)
	codec("compress.lossy", spanLossyEnc, spanLossyDec)
	m.set("compress.lossy.bound_violations", float64(tr.lossy.violations.Load()))
	chk.op(tr.lossy.violations.Load() == 0, "%s: %d lossy blocks broke their error bound", e.w.name, tr.lossy.violations.Load())

	sr, coll := tr.rec.totals(spanSendRecv), tr.rec.totals(spanCollective)
	commBusy = sr.busy + coll.busy
	m.set("mpi.sendrecv_calls", float64(sr.calls))
	m.set("mpi.sendrecv_busy_s", sr.busy.Seconds()/ranks)
	m.set("mpi.collective_calls", float64(coll.calls))
	m.set("mpi.collective_busy_s", coll.busy.Seconds()/ranks)
	m.set("mpi.bytes_moved", float64(tr.bytesMoved))

	st := tr.stats
	kernel := st.ComputeTime.Seconds() / ranks
	self := wall - (codecBusy+commBusy).Seconds()/ranks
	m.set("core.kernel_s", kernel)
	m.set("core.kernel_ns_per_amp", ratio(float64(st.ComputeTime), tr.ampUpdates))
	m.set("core.self_s", self)
	m.set("core.unattributed_s", self-kernel)
	m.set("core.unattributed_frac", (self-kernel)/wall)
	m.set("core.cache_lookups", float64(st.CacheLookups))
	m.set("core.cache_hit_ratio", ratio(float64(st.CacheHits), float64(st.CacheLookups)))
	m.set("core.codec_passes_saved", float64(st.CodecPassesSaved))
	m.set("core.codec_passes_shared", float64(st.CodecPassesShared))
	m.set("core.variants", float64(st.VariantCount))
	m.set("core.escalations", float64(st.Escalations))
	m.set("core.final_level", float64(st.FinalLevel))
	m.set("quantum.sweeps", float64(st.Sweeps))
	m.set("quantum.sweep_gates", float64(st.SweepGates))
	m.set("blockstore.spill_writes", float64(st.SpillWrites))
	m.set("blockstore.spill_reads", float64(st.SpillReads))
	m.set("blockstore.prefetch_reads", float64(st.PrefetchReads))
	m.set("blockstore.prefetch_hit_ratio", ratio(float64(st.PrefetchHits), float64(st.PrefetchReads)))
	m.set("blockstore.max_resident_bytes", float64(st.MaxResident))
	m.set("blockstore.spilled_bytes", float64(st.SpilledBytes))
	if e.w.kind == kindSample {
		m.set("core.sampler.build_s", tr.build.Seconds())
		m.set("core.sampler.draw_s", tr.draw.Seconds())
		m.set("core.sampler.dec_calls", m.get("compress.lossless.dec_calls")+m.get("compress.lossy.dec_calls"))
	} else {
		m.set("qcsim.amp_updates_per_s", tr.ampUpdates/m.get("qcsim.run_median_s"))
	}

	// The engine times its codec calls itself (Stats); the spans time
	// the same calls from just inside. The two must tell one story.
	// With compression off the engine's "compress" is a raw block copy
	// that no codec sees, so there is nothing to compare.
	if !e.g.uncompressed && e.w.kind != kindSample {
		spans, engine := tr.rec.codecBusy(tr.executing).Seconds(), (st.CompressTime + st.DecompressTime).Seconds()
		chk.op(math.Abs(spans-engine) <= 0.05*engine,
			"%s: codec spans sum to %.4f s, the engine's Stats to %.4f s", e.w.name, spans, engine)
	}

	// A layer the workload bypasses must see no traffic at all.
	zero := func(why string, names ...string) {
		for _, n := range names {
			chk.op(m.get(n) == 0, "%s: %s = %v, want 0 (%s)", e.w.name, n, m.get(n), why)
		}
	}
	if e.g.cacheLines == 0 {
		zero("cache off", "core.cache_lookups")
	}
	if e.g.ranks == 1 {
		zero("one rank", "mpi.bytes_moved", "mpi.sendrecv_calls")
	}
	if e.g.spillBudget == 0 {
		zero("RAM store", "blockstore.spill_writes", "blockstore.spill_reads", "blockstore.prefetch_reads", "blockstore.spilled_bytes")
	}
	if e.g.uncompressed {
		zero("compression off", "compress.lossless.enc_calls", "compress.lossless.dec_calls", "compress.lossy.enc_calls", "compress.lossy.dec_calls")
	}
	if e.g.budget == 0 {
		zero("no memory budget", "compress.lossy.enc_calls", "core.escalations")
	}
}
