// Package mpi provides the application-facing message passing interface on
// top of the communication daemon: the calls the NAS skeletons, the
// service and the ping-pong make — Send, Recv, Sendrecv, Compute, and the
// broadcast, reduce, all-reduce and all-to-all collectives, implemented
// over point-to-point messages with the classic binomial and pairwise
// algorithms.
//
// Payloads carry only their size: the protocols under study never inspect
// message content, so the simulation moves byte counts, not bytes.
package mpi

import (
	"mpichv/internal/daemon"
	"mpichv/internal/event"
	"mpichv/internal/sim"
	"mpichv/internal/vproto"
)

// Reserved tag space for collectives, above any application tag.
const (
	tagBcast  = 2 << 20
	tagReduce = 3 << 20
	tagA2A    = 5 << 20
)

// AnySource matches any sender in Recv.
const AnySource = -1

// Comm is a communicator bound to one rank's node.
type Comm struct {
	n *daemon.Node
}

// NewComm wraps a node in a communicator.
func NewComm(n *daemon.Node) *Comm { return &Comm{n: n} }

// Rank returns the calling process's rank.
func (c *Comm) Rank() int { return int(c.n.Rank()) }

// Size returns the number of processes.
func (c *Comm) Size() int { return c.n.NP() }

// Compute models local computation of duration d.
func (c *Comm) Compute(d sim.Time) { c.n.Compute(d) }

// Send transmits bytes of payload to dst with the given tag.
func (c *Comm) Send(dst, tag, bytes int) {
	c.n.Send(event.Rank(dst), tag, bytes)
}

// Recv blocks until a message matching (src, tag) arrives and returns it.
func (c *Comm) Recv(src, tag int) *vproto.Message {
	return c.n.Recv(event.Rank(src), tag)
}

// Sendrecv sends to dst and receives from src (both with tag), overlapping
// the two as real MPI does: the send is eager, so it cannot deadlock.
func (c *Comm) Sendrecv(dst, sendBytes, src, tag int) *vproto.Message {
	c.Send(dst, tag, sendBytes)
	return c.Recv(src, tag)
}

// Bcast broadcasts bytes from root (binomial tree).
func (c *Comm) Bcast(root, bytes int) {
	np, rank := c.Size(), c.Rank()
	if np == 1 {
		return
	}
	vr := (rank - root + np) % np
	mask := 1
	for mask < np {
		if vr&mask != 0 {
			src := (vr - mask + root) % np
			c.Recv(src, tagBcast)
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if vr+mask < np {
			dst := (vr + mask + root) % np
			c.Send(dst, tagBcast, bytes)
		}
		mask >>= 1
	}
}

// Reduce combines bytes onto root (binomial tree, mirror of Bcast).
func (c *Comm) Reduce(root, bytes int) {
	np, rank := c.Size(), c.Rank()
	if np == 1 {
		return
	}
	vr := (rank - root + np) % np
	mask := 1
	for mask < np {
		if vr&mask == 0 {
			if vr+mask < np {
				src := (vr + mask + root) % np
				c.Recv(src, tagReduce)
			}
		} else {
			dst := (vr - mask + root) % np
			c.Send(dst, tagReduce, bytes)
			break
		}
		mask <<= 1
	}
}

// Allreduce combines bytes across all processes (reduce to 0 + broadcast).
func (c *Comm) Allreduce(bytes int) {
	c.Reduce(0, bytes)
	c.Bcast(0, bytes)
}

// Alltoall exchanges bytesPerPair with every other process (pairwise
// rounds; sends are eager so the symmetric pattern cannot deadlock).
func (c *Comm) Alltoall(bytesPerPair int) {
	np, rank := c.Size(), c.Rank()
	for i := 1; i < np; i++ {
		to := (rank + i) % np
		from := (rank - i + np) % np
		c.Send(to, tagA2A+i, bytesPerPair)
		c.Recv(from, tagA2A+i)
	}
}
