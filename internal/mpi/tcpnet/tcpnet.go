// Package tcpnet implements the mpi transport contract over real
// processes: each rank lives in its own OS process and talks to every
// peer over a persistent TCP connection carrying length-prefixed
// 8-byte-word frames. The package honors the two invariants the
// contract documents:
//
//   - Reductions combine contributions in rank order 0..Size-1. Every
//     collective is an allgather (a log-free XOR-scheduled full
//     exchange) followed by a local fold over the gathered values in
//     rank order, so AllreduceSum is bit-identical to the in-process
//     transport's ordered sum and AllreduceMax/Bcast are exact.
//   - A dying rank unblocks everyone. Any I/O error on any peer link
//     closes every link this rank holds (the close cascades peer to
//     peer across the mesh) and panics with an error wrapping
//     mpi.ErrRankDied, so no collective ever deadlocks on a dead
//     process.
//
// Wire format: every message is [uint32 big-endian word count] followed
// by count little-endian 8-byte words. Words carry math.Float64bits for
// amplitude traffic and raw uint64s for AllreduceMax, so no value is
// ever round-tripped through a lossy representation.
//
// Accounting mirrors the in-process transport: user SendRecv calls
// count toward sends and BytesMoved (self-exchange included), while the
// exchanges backing collectives count only toward CommTime — so the
// paper's Table 2 communication volume is transport-independent.
package tcpnet

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"time"

	"qcsim/internal/mpi"
)

// Comm is one process's live rank. It implements mpi.Comm. A Comm is
// built by Mesh and is not safe for concurrent use by multiple
// goroutines — like the in-process transport, one goroutine owns the
// rank body.
type Comm struct {
	rank  int
	size  int
	peers []*peer // indexed by rank; peers[rank] == nil

	closeOnce sync.Once

	commTime time.Duration
	sends    int
	bytes    int64
}

// peer is one persistent duplex link. The write and read scratch
// buffers are separate because an exchange writes and reads
// concurrently.
type peer struct {
	conn net.Conn
	wbuf []byte
	rbuf []byte
}

// Rank returns this process's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the mesh.
func (c *Comm) Size() int { return c.size }

// CommTime returns the cumulative wall time this rank has spent inside
// collectives and cross-process exchanges.
func (c *Comm) CommTime() time.Duration { return c.commTime }

// BytesMoved returns the payload bytes this rank has sent through
// SendRecv.
func (c *Comm) BytesMoved() int64 { return c.bytes }

// Close tears down every peer link. It is idempotent and safe to call
// from any goroutine; peers blocked on this rank observe the close as
// a read error and die with mpi.ErrRankDied.
func (c *Comm) Close() error {
	c.closeOnce.Do(func() {
		for _, p := range c.peers {
			if p != nil {
				p.conn.Close()
			}
		}
	})
	return nil
}

// die tears down the whole mesh from this rank's point of view and
// panics with the transport's failure sentinel. Closing every link
// (not just the failed one) is what makes the failure cascade: each
// peer's next read fails, it dies too, and every rank in the mesh
// surfaces mpi.ErrRankDied instead of deadlocking.
func (c *Comm) die(op string, err error) {
	c.Close()
	panic(fmt.Errorf("tcpnet: rank %d: %s: %v: %w", c.rank, op, err, mpi.ErrRankDied))
}

// grow returns buf resized to n bytes, reallocating only when needed.
func grow(buf []byte, n int) []byte {
	if cap(buf) < n {
		return make([]byte, n)
	}
	return buf[:n]
}

// exchangeWords performs one full-duplex exchange of words with a peer
// (swap).
func (c *Comm) exchangeWords(peerRank int, out, in []uint64) {
	p := c.peers[peerRank]
	p.wbuf = grow(p.wbuf, 4+8*len(out))
	binary.BigEndian.PutUint32(p.wbuf, uint32(len(out)))
	for i, w := range out {
		binary.LittleEndian.PutUint64(p.wbuf[4+8*i:], w)
	}
	rbuf := c.swap(peerRank, len(in))
	for i := range in {
		in[i] = binary.LittleEndian.Uint64(rbuf[8*i:])
	}
}

// swap writes the frame the caller put in peerRank's wbuf while
// concurrently reading the peer's frame, and returns its payload, which
// must be want words. Both sides of an XOR-scheduled pair run this
// simultaneously, so neither write can block on a full kernel buffer
// while the other side waits — the concurrent reader always drains.
// Any I/O failure kills the mesh via die; a frame of another length is
// a contract violation and panics with the transport-standard length
// message after tearing the mesh down.
func (c *Comm) swap(peerRank, want int) []byte {
	p := c.peers[peerRank]
	wdone := make(chan error, 1)
	go func() {
		_, err := p.conn.Write(p.wbuf)
		wdone <- err
	}()
	var hdr [4]byte
	if _, err := io.ReadFull(p.conn, hdr[:]); err != nil {
		p.conn.Close() // unblock our writer goroutine too
		<-wdone
		c.die(fmt.Sprintf("recv header from rank %d", peerRank), err)
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n != want {
		c.Close()
		<-wdone
		panic(fmt.Sprintf("tcpnet: rank %d expected %d values from %d, got %d", c.rank, want, peerRank, n))
	}
	p.rbuf = grow(p.rbuf, 8*n)
	if _, err := io.ReadFull(p.conn, p.rbuf); err != nil {
		p.conn.Close()
		<-wdone
		c.die(fmt.Sprintf("recv payload from rank %d", peerRank), err)
	}
	if err := <-wdone; err != nil {
		c.die(fmt.Sprintf("send to rank %d", peerRank), err)
	}
	return p.rbuf
}

// SendRecv exchanges payloads with a peer rank. The arriving message
// must have exactly len(recv) values or SendRecv panics — a mismatch
// is a protocol bug, not a runtime condition. A self-exchange is a
// local copy that still counts toward sends and BytesMoved, keeping
// traffic accounting transport-independent.
func (c *Comm) SendRecv(peerRank int, send, recv []float64) {
	if peerRank == c.rank {
		if len(send) != len(recv) {
			panic(fmt.Sprintf("tcpnet: rank %d expected %d values from %d, got %d", c.rank, len(recv), peerRank, len(send)))
		}
		copy(recv, send)
		c.sends++
		c.bytes += int64(len(send) * 8)
		return
	}
	start := time.Now()
	p := c.peers[peerRank]
	p.wbuf = grow(p.wbuf, 4+8*len(send))
	binary.BigEndian.PutUint32(p.wbuf, uint32(len(send)))
	for i, f := range send {
		binary.LittleEndian.PutUint64(p.wbuf[4+8*i:], math.Float64bits(f))
	}
	rbuf := c.swap(peerRank, len(recv))
	for i := range recv {
		recv[i] = math.Float64frombits(binary.LittleEndian.Uint64(rbuf[8*i:]))
	}
	c.sends++
	c.bytes += int64(len(send) * 8)
	c.commTime += time.Since(start)
}

// allgatherWord gives every rank every rank's word. The schedule pairs
// rank r with r^d for d = 1..size-1; both members of a pair exchange
// simultaneously, the pairing is a perfect matching at every step
// (size is a power of two), and no step depends on another — so the
// sweep is deadlock-free without any ordering negotiation.
func (c *Comm) allgatherWord(x uint64) []uint64 {
	vals := make([]uint64, c.size)
	vals[c.rank] = x
	out := [1]uint64{x}
	var in [1]uint64
	for d := 1; d < c.size; d++ {
		pr := c.rank ^ d
		c.exchangeWords(pr, out[:], in[:])
		vals[pr] = in[0]
	}
	return vals
}

// Barrier blocks until every rank arrives. The full exchange doubles
// as the rendezvous: a rank returns only after hearing from every
// peer, and a dead peer surfaces as mpi.ErrRankDied.
func (c *Comm) Barrier() {
	start := time.Now()
	c.allgatherWord(0)
	c.commTime += time.Since(start)
}

// AllreduceSum returns the sum of every rank's contribution, added in
// rank order 0..Size-1 — bit-identical to the in-process transport,
// which matters because float addition is not associative.
func (c *Comm) AllreduceSum(x float64) float64 {
	start := time.Now()
	vals := c.allgatherWord(math.Float64bits(x))
	c.commTime += time.Since(start)
	var sum float64
	for _, v := range vals {
		sum += math.Float64frombits(v)
	}
	return sum
}

// AllreduceMax returns the maximum of every rank's value. The words
// travel as raw uint64s, never through a float representation.
func (c *Comm) AllreduceMax(x uint64) uint64 {
	start := time.Now()
	vals := c.allgatherWord(x)
	c.commTime += time.Since(start)
	max := vals[0]
	for _, v := range vals[1:] {
		if v > max {
			max = v
		}
	}
	return max
}

// Bcast distributes root's value to every rank.
func (c *Comm) Bcast(root int, x float64) float64 {
	start := time.Now()
	vals := c.allgatherWord(math.Float64bits(x))
	c.commTime += time.Since(start)
	return math.Float64frombits(vals[root])
}
