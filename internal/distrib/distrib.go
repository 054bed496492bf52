// Package distrib orchestrates a distributed run: real OS processes as
// SPMD ranks, wired together by the tcpnet transport behind the mpi
// contract.
//
// The coordinator process holds the authoritative Simulator. For each
// distributed run it listens for worker control connections, assigns
// each worker a rank and the full peer table, ships the job spec plus
// that rank's compressed blocks (core.ExportRankBlocks), and waits.
// Each worker builds a same-configuration Simulator whose Launcher is a
// tcpnet mesh, installs its rank (core.InstallRank), executes the
// circuit in lockstep with its peers, and ships back a core.RankDelta
// (core.ExportDelta). The coordinator merges the deltas
// (core.ApplyDeltas) and the run is — for a single Run on a fresh
// state — bit-identical to the in-process transport: amplitudes,
// fidelity ledger, measurement outcomes, and the deterministic Stats
// counters.
//
// Failure semantics: a worker that dies mid-run tears its tcpnet links
// down, the failure cascades across the mesh (every surviving rank's
// collective returns an error wrapping mpi.ErrRankDied), every
// survivor reports that typed failure on its control connection, and
// Run returns an error on which errors.Is(err, mpi.ErrRankDied) holds
// — within a bounded drain window, never a deadlock. On any failure
// the coordinator's own state is untouched: deltas are only applied
// after every rank reports success, so a failed distributed run keeps
// the pre-run state (unlike the in-process transport, which keeps the
// completed gate prefix).
//
// Two documented divergences from the in-process transport, both
// consequences of workers being fresh processes: the measurement and
// noise rng streams restart at Seed on every distributed Run (a
// *sequence* of Runs with measurements can draw differently than the
// same sequence in process), and OnGate progress callbacks are not
// delivered across the process boundary.
package distrib

import (
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"time"

	"qcsim/internal/compress/registry"
	"qcsim/internal/core"
	"qcsim/internal/mpi"
	"qcsim/internal/quantum"
)

// EnvCoordAddr is the environment variable through which a spawned
// worker learns the coordinator's control address.
const EnvCoordAddr = "QCSIM_COORD_ADDR"

// JobSpec is everything a worker needs to rebuild the coordinator's
// simulator: its effective configuration, whole, and the circuit.
// Config's interface fields do not travel. The codecs go by registry
// name instead, so custom codecs must be registered (under the same
// name) in the worker binary too, and the worker installs its own
// launcher. The circuit travels by gob like Config. Gob keeps every bit
// of a complex128 (−0, NaN payloads, subnormals, ±Inf), so the workers
// execute the coordinator's exact unitaries, which is what keeps
// TCP-transport amplitudes byte-identical to in-process runs; the qc
// text format would not, as it recovers rotation angles through Atan2.
// A parametric circuit must be bound first, as the engine requires.
type JobSpec struct {
	Config                  core.Config // Lossless, Lossy and Launcher nil
	LosslessName, LossyName string
	Circuit                 *quantum.Circuit
	MeshTimeout             time.Duration
	GateDelay               time.Duration // per-gate pacing (tests/CI)
}

// config rebuilds the coordinator's configuration on a worker,
// resolving both codecs through the registry.
func (j JobSpec) config() (core.Config, error) {
	cfg := j.Config
	var err error
	if cfg.Lossless, err = registry.New(j.LosslessName); err != nil {
		return cfg, err
	}
	if cfg.Lossy, err = registry.New(j.LossyName); err != nil {
		return cfg, err
	}
	return cfg, nil
}

// helloMsg is the worker's first control message: where its data-plane
// listener lives.
type helloMsg struct {
	DataAddr string
}

// assignMsg is the coordinator's reply: who you are, who your peers
// are, what to run, and the state to start from.
type assignMsg struct {
	Rank   int
	Peers  []string
	Spec   JobSpec
	Blocks [][]byte
	Level  int
}

// check is the worker's one look at an assignment before it meshes:
// both codecs resolve, the circuit is a bound, well-formed circuit on
// the configured register, and the peer table and the rank fit the
// configured rank count. It returns the configuration the rank runs.
func (as assignMsg) check() (core.Config, error) {
	cfg, err := as.Spec.config()
	if err != nil {
		return cfg, fmt.Errorf("distrib: %w (custom codecs must be registered in the worker binary)", err)
	}
	c := as.Spec.Circuit
	switch {
	case c == nil:
		return cfg, errors.New("distrib: assignment carries no circuit")
	case c.N != cfg.Qubits:
		return cfg, fmt.Errorf("distrib: %d-qubit circuit for a %d-qubit simulator", c.N, cfg.Qubits)
	case c.Parametric():
		return cfg, errUnbound
	case len(as.Peers) != cfg.Ranks:
		return cfg, fmt.Errorf("distrib: %d peers for %d ranks", len(as.Peers), cfg.Ranks)
	case as.Rank < 0 || as.Rank >= cfg.Ranks:
		return cfg, fmt.Errorf("distrib: rank %d out of range [0,%d)", as.Rank, cfg.Ranks)
	}
	if err := c.Validate(); err != nil {
		return cfg, fmt.Errorf("distrib: %w", err)
	}
	return cfg, nil
}

// errUnbound refuses a parametric circuit, on the coordinator before
// anything is spawned and on a worker alike.
var errUnbound = errors.New("distrib: circuit has an unbound parameter; Bind it first")

// resultMsg is the worker's final control message. RankDied travels as
// a flag because error chains do not survive gob; the coordinator
// re-wraps mpi.ErrRankDied so errors.Is works end to end.
type resultMsg struct {
	Err      string
	RankDied bool
	Delta    *core.RankDelta
}

// Options parameterizes a distributed run.
type Options struct {
	// ListenAddr is the coordinator's control listen address. Defaults
	// to "127.0.0.1:0".
	ListenAddr string
	// WorkerCommand is the argv spawned once per rank, each child
	// receiving the coordinator address in EnvCoordAddr. nil spawns
	// nothing: the coordinator waits for externally launched workers
	// (e.g. qcrank -coord on other hosts) to connect.
	WorkerCommand []string
	// HandshakeTimeout bounds worker connection, rank assignment, and
	// mesh formation. Defaults to 30s.
	HandshakeTimeout time.Duration
	// JobTimeout bounds the whole run, 0 meaning unbounded.
	JobTimeout time.Duration
	// GateDelay makes every worker sleep this long per executed gate —
	// a pacing hook so tests and CI can hold a run in flight while they
	// poke at it. Zero for real runs.
	GateDelay time.Duration

	// onSpawn, when set, observes each spawned worker process (tests
	// use it to kill one mid-run).
	onSpawn func(idx int, cmd *exec.Cmd)
}

// buildSpec lowers a simulator's effective configuration (what
// Simulator.Config returns: validated, every default applied) and one
// circuit to the job spec.
func buildSpec(cfg core.Config, c *quantum.Circuit, opt Options) (JobSpec, error) {
	if c.Parametric() {
		return JobSpec{}, errUnbound
	}
	ht := opt.HandshakeTimeout
	if ht <= 0 {
		ht = 30 * time.Second
	}
	spec := JobSpec{
		LosslessName: cfg.Lossless.Name(),
		LossyName:    cfg.Lossy.Name(),
		Circuit:      c,
		MeshTimeout:  ht,
		GateDelay:    opt.GateDelay,
	}
	cfg.Lossless, cfg.Lossy, cfg.Launcher = nil, nil, nil
	spec.Config = cfg
	return spec, nil
}

// Run executes one circuit on sim over real worker processes, which
// rebuild same-configuration simulators from sim.Config(). poll is
// consulted periodically while the job is in flight — a non-nil return
// aborts the run (workers are killed, the coordinator state stays
// pre-run).
func Run(sim *core.Simulator, c *quantum.Circuit, opt Options, poll func() error) error {
	spec, err := buildSpec(sim.Config(), c, opt)
	if err != nil {
		return err
	}
	size := spec.Config.Ranks

	addr := opt.ListenAddr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("distrib: coordinator listen: %w", err)
	}
	defer ln.Close()

	// Spawn the local workers (if any), every child pointed at the
	// control address through the environment.
	var procs []*exec.Cmd
	defer func() {
		for _, p := range procs {
			if p.Process != nil {
				p.Process.Kill()
				p.Wait()
			}
		}
	}()
	if len(opt.WorkerCommand) > 0 {
		for i := 0; i < size; i++ {
			cmd := exec.Command(opt.WorkerCommand[0], opt.WorkerCommand[1:]...)
			cmd.Env = append(os.Environ(), EnvCoordAddr+"="+ln.Addr().String())
			cmd.Stdout = os.Stderr
			cmd.Stderr = os.Stderr
			if err := cmd.Start(); err != nil {
				return fmt.Errorf("distrib: spawning worker %d (%q): %w", i, opt.WorkerCommand[0], err)
			}
			procs = append(procs, cmd)
			if opt.onSpawn != nil {
				opt.onSpawn(i, cmd)
			}
		}
	}

	// Handshake: accept one control connection per rank, read its
	// hello, assign ranks in arrival order.
	handshakeDeadline := time.Now().Add(spec.MeshTimeout)
	if tl, ok := ln.(*net.TCPListener); ok {
		tl.SetDeadline(handshakeDeadline)
	}
	conns := make([]net.Conn, 0, size)
	defer func() {
		for _, conn := range conns {
			conn.Close()
		}
	}()
	encs := make([]*gob.Encoder, 0, size)
	decs := make([]*gob.Decoder, 0, size)
	peers := make([]string, 0, size)
	for len(conns) < size {
		conn, err := ln.Accept()
		if err != nil {
			return fmt.Errorf("distrib: %d of %d workers connected before handshake deadline: %w", len(conns), size, err)
		}
		conn.SetDeadline(handshakeDeadline)
		enc, dec := gob.NewEncoder(conn), gob.NewDecoder(conn)
		var hello helloMsg
		if err := dec.Decode(&hello); err != nil {
			conn.Close()
			return fmt.Errorf("distrib: worker hello: %w", err)
		}
		conns = append(conns, conn)
		encs = append(encs, enc)
		decs = append(decs, dec)
		peers = append(peers, hello.DataAddr)
	}
	for rank := range conns {
		blocks, level, err := sim.ExportRankBlocks(rank)
		if err != nil {
			return fmt.Errorf("distrib: exporting rank %d: %w", rank, err)
		}
		if err := encs[rank].Encode(assignMsg{
			Rank: rank, Peers: peers, Spec: spec,
			Blocks: blocks, Level: level,
		}); err != nil {
			return fmt.Errorf("distrib: assigning rank %d: %w", rank, err)
		}
		conns[rank].SetDeadline(time.Time{})
	}

	// Result phase: one reader per control connection; the run is done
	// when every rank has resolved (result, or connection loss = the
	// worker died).
	type rankOutcome struct {
		rank int
		msg  resultMsg
		err  error
	}
	ch := make(chan rankOutcome, size)
	for rank := range conns {
		go func(rank int) {
			var msg resultMsg
			err := decs[rank].Decode(&msg)
			ch <- rankOutcome{rank: rank, msg: msg, err: err}
		}(rank)
	}

	teardown := func() {
		for _, p := range procs {
			if p.Process != nil {
				p.Process.Kill()
			}
		}
		for _, conn := range conns {
			conn.Close()
		}
	}

	pollTick := time.NewTicker(50 * time.Millisecond)
	defer pollTick.Stop()
	var jobTimeout <-chan time.Time
	if opt.JobTimeout > 0 {
		jt := time.NewTimer(opt.JobTimeout)
		defer jt.Stop()
		jobTimeout = jt.C
	}
	// Once anything has failed the survivors are already cascading to
	// their own ErrRankDied reports; the drain window bounds how long
	// we wait for those reports before forcing the teardown.
	var drain <-chan time.Time
	var drainTimer *time.Timer
	defer func() {
		if drainTimer != nil {
			drainTimer.Stop()
		}
	}()
	deltas := make([]*core.RankDelta, 0, size)
	var errs []error
	noteFailure := func(err error) {
		errs = append(errs, err)
		if drain == nil {
			drainTimer = time.NewTimer(10 * time.Second)
			drain = drainTimer.C
		}
	}
	for resolved := 0; resolved < size; {
		select {
		case out := <-ch:
			resolved++
			switch {
			case out.err != nil:
				noteFailure(fmt.Errorf("distrib: rank %d: worker connection lost (%v): %w", out.rank, out.err, mpi.ErrRankDied))
			case out.msg.Err != "":
				if out.msg.RankDied {
					noteFailure(fmt.Errorf("distrib: rank %d: %s: %w", out.rank, out.msg.Err, mpi.ErrRankDied))
				} else {
					noteFailure(fmt.Errorf("distrib: rank %d: %s", out.rank, out.msg.Err))
				}
			case out.msg.Delta == nil:
				noteFailure(fmt.Errorf("distrib: rank %d: worker reported success without a delta", out.rank))
			default:
				deltas = append(deltas, out.msg.Delta)
			}
		case <-pollTick.C:
			if poll != nil {
				if aerr := poll(); aerr != nil {
					teardown()
					return fmt.Errorf("distrib: run aborted: %w", aerr)
				}
			}
		case <-drain:
			teardown()
			return fmt.Errorf("distrib: workers unresponsive after failure: %w", errors.Join(errs...))
		case <-jobTimeout:
			teardown()
			return fmt.Errorf("distrib: job exceeded %v", opt.JobTimeout)
		}
	}
	if err := errors.Join(errs...); err != nil {
		return err
	}
	if err := sim.ApplyDeltas(deltas); err != nil {
		return fmt.Errorf("distrib: merging rank deltas: %w", err)
	}
	return nil
}
