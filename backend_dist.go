package qcsim

import (
	"qcsim/circuit"
	"qcsim/internal/core"
	"qcsim/internal/distrib"
)

// distBackend is the compressed engine behind the TCP transport: state
// ownership, inspection, sampling, checkpointing, and Reset all stay
// local (the embedded compressedBackend is authoritative between
// runs), but RunControlled executes over real worker processes — the
// coordinator ships each rank's compressed blocks out, the workers run
// the circuit in lockstep over a tcpnet mesh, and the rank deltas
// merge back in.
//
// Two facade behaviours change on this backend, both documented on
// WithTransport: RunProgress events are not delivered across the
// process boundary (the run still executes; OnGate is dropped), and a
// failed or aborted distributed run keeps the coordinator's pre-run
// state rather than the completed gate prefix.
type distBackend struct {
	compressedBackend
	opt distrib.Options
}

func newDistBackend(cb compressedBackend, workerCmd []string) *distBackend {
	if len(workerCmd) == 0 {
		workerCmd = []string{"qcrank"}
	}
	return &distBackend{
		compressedBackend: cb,
		opt:               distrib.Options{WorkerCommand: workerCmd},
	}
}

// RunControlled ships the engine's own configuration to the workers.
func (b *distBackend) RunControlled(c *circuit.Circuit, ctl core.RunControl) error {
	return distrib.Run(b.Simulator, c, b.opt, ctl.PollAbort)
}

// RankWorker runs the calling process as one rank of a distributed
// job: it connects to the coordinator at coordAddr (spawned workers
// find it in the QCSIM_COORD_ADDR environment variable), executes its
// assigned rank, reports the result, and returns when the job is over.
// A non-nil return means this rank failed;
// errors.Is(err, ErrRankDied) distinguishes a peer dying mid-run from
// local failures. cmd/qcrank is a ready-made main around this call;
// custom worker binaries need it only to register custom codecs before
// serving.
func RankWorker(coordAddr string) error {
	return distrib.Worker(coordAddr)
}

// Transport reports which rank runtime this simulator executes on:
// TransportTCP for a simulator built with WithTransport(TransportTCP),
// TransportInProcess otherwise.
func (s *Simulator) Transport() string {
	if _, ok := s.be.(*distBackend); ok {
		return TransportTCP
	}
	return TransportInProcess
}
