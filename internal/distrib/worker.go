package distrib

import (
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"time"

	"qcsim/internal/core"
	"qcsim/internal/mpi"
	"qcsim/internal/mpi/tcpnet"
	"qcsim/internal/quantum"
)

// Worker runs this process as one rank of a distributed job: it dials
// the coordinator's control address, announces a data-plane listener,
// waits for its rank assignment, meshes with its peers over tcpnet,
// executes the shipped circuit on the shipped state, and reports a
// RankDelta (or a typed failure) back. It returns when the job is
// over; a non-nil return means this rank failed, and
// errors.Is(err, mpi.ErrRankDied) distinguishes "a peer died under
// me" from local failures.
func Worker(coordAddr string) error {
	conn, err := net.DialTimeout("tcp", coordAddr, 30*time.Second)
	if err != nil {
		return fmt.Errorf("distrib: worker dialing coordinator %s: %w", coordAddr, err)
	}
	defer conn.Close()
	enc, dec := gob.NewEncoder(conn), gob.NewDecoder(conn)

	// The data-plane listener binds the interface this process actually
	// reaches the coordinator through, so the advertised address works
	// for peers on other hosts too.
	host, _, err := net.SplitHostPort(conn.LocalAddr().String())
	if err != nil {
		return fmt.Errorf("distrib: worker local address: %w", err)
	}
	ln, err := net.Listen("tcp", net.JoinHostPort(host, "0"))
	if err != nil {
		return fmt.Errorf("distrib: worker data listen: %w", err)
	}
	defer ln.Close()

	conn.SetDeadline(time.Now().Add(2 * time.Minute))
	if err := enc.Encode(helloMsg{DataAddr: ln.Addr().String()}); err != nil {
		return fmt.Errorf("distrib: worker hello: %w", err)
	}
	var as assignMsg
	if err := dec.Decode(&as); err != nil {
		return fmt.Errorf("distrib: worker awaiting assignment: %w", err)
	}
	conn.SetDeadline(time.Time{})

	res := runAssignment(ln, as)
	if err := enc.Encode(res); err != nil {
		return fmt.Errorf("distrib: rank %d reporting result: %w", as.Rank, err)
	}
	if res.Err != "" {
		if res.RankDied {
			return fmt.Errorf("distrib: rank %d: %s: %w", as.Rank, res.Err, mpi.ErrRankDied)
		}
		return fmt.Errorf("distrib: rank %d: %s", as.Rank, res.Err)
	}
	return nil
}

// runAssignment executes one assigned rank body and packages the
// outcome, classifying transport deaths so the coordinator can re-wrap
// the sentinel across the gob boundary.
func runAssignment(ln net.Listener, as assignMsg) resultMsg {
	fail := func(err error) resultMsg {
		return resultMsg{Err: err.Error(), RankDied: errors.Is(err, mpi.ErrRankDied)}
	}
	cfg, err := as.check()
	if err != nil {
		return fail(err)
	}
	spec := as.Spec

	comm, err := tcpnet.Mesh(ln, as.Rank, as.Peers, time.Now().Add(spec.MeshTimeout))
	if err != nil {
		return fail(err)
	}
	defer comm.Close()
	cfg.Launcher = tcpnet.NewLauncher(comm)

	sim, err := core.New(cfg)
	if err != nil {
		return fail(err)
	}
	defer sim.Close()
	if err := sim.InstallRank(as.Rank, as.Blocks, as.Level); err != nil {
		return fail(err)
	}

	var ctl core.RunControl
	if spec.GateDelay > 0 {
		// The pacing hook fires on rank 0; every other rank paces
		// implicitly by waiting at the next sweep's collective.
		ctl.OnGate = func(gi, total int, g quantum.Gate) {
			time.Sleep(spec.GateDelay)
		}
	}
	if err := sim.RunControlled(spec.Circuit, ctl); err != nil {
		return fail(err)
	}
	delta, err := sim.ExportDelta(as.Rank)
	if err != nil {
		return fail(err)
	}
	return resultMsg{Delta: delta}
}
