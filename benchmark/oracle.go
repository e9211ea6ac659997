package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/mpi"
)

// opKind names one of the seven collectives the workloads drive.
type opKind string

const (
	opBarrier   opKind = "barrier"
	opBcast     opKind = "bcast"
	opAllreduce opKind = "allreduce"
	opAllgather opKind = "allgather"
	opGather    opKind = "gather"
	opScatter   opKind = "scatter"
	opAlltoall  opKind = "alltoall"
)

// allOps is the seven-op cycle, in the order the UDP workloads run it.
var allOps = []opKind{opBarrier, opBcast, opAllreduce, opAllgather, opGather, opScatter, opAlltoall}

// mix is one splitmix64 step over a ^ f(b): the keyed hash every payload
// byte derives from, so inputs are a pure function of the seed.
func mix(a, b uint64) uint64 {
	z := a ^ (b+1)*0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// fillBlock fills dst with the pseudo-random stream named by key.
func fillBlock(dst []byte, key uint64) {
	x := key
	for len(dst) >= 8 {
		x = mix(x, 0)
		binary.LittleEndian.PutUint64(dst, x)
		dst = dst[8:]
	}
	if len(dst) > 0 {
		var last [8]byte
		binary.LittleEndian.PutUint64(last[:], mix(x, 0))
		copy(dst, last[:])
	}
}

// collective binds one op kind and size to a communicator with per-rank
// buffers. Every iteration's send buffers are regenerated from
// (key, iter, source rank, destination block), so a stale or misrouted
// block never compares equal, and the expected result is computed by the
// same pure functions without looking at what the program produced.
type collective struct {
	c    *mpi.Comm
	kind opKind
	size int // bytes per rank (per rank pair for alltoall; whole vector for bcast/allreduce)
	root int
	key  uint64
	// floatSum selects the allreduce: float64 sum (the UDP workloads) or
	// byte max (the simulated ones, as workload.Make and BENCH_sim.json).
	floatSum bool

	send, recv []byte
	want       []byte // one block of expected bytes, regenerated per comparison
}

// arena hands out byte slices from one slab that is reused from world
// to world, so the benchmark's own buffers (262 MB for an alltoall at
// N=256) sit on resident pages instead of faulting fresh ones in under
// the program being timed. A nil arena allocates normally. Not safe for
// concurrent use: the simulator runs one rank at a time.
type arena struct {
	slab []byte
	off  int // bytes asked for since reset, whether they fitted or not
}

func (a *arena) take(n int) []byte {
	if a == nil {
		return make([]byte, n)
	}
	a.off += n
	if a.off > len(a.slab) {
		return make([]byte, n)
	}
	return a.slab[a.off-n : a.off : a.off]
}

// reset recycles every slice handed out, growing the slab to what the
// last world asked for.
func (a *arena) reset() {
	if a == nil {
		return
	}
	if a.off > len(a.slab) {
		a.slab = make([]byte, a.off)
	}
	a.off = 0
}

func newCollective(c *mpi.Comm, kind opKind, size, root int, key uint64, floatSum bool, mem *arena) *collective {
	o := &collective{c: c, kind: kind, size: size, root: root, floatSum: floatSum,
		key: mix(key, uint64(len(kind))<<8|uint64(kind[0]))}
	n, me := c.Size(), c.Rank()
	switch kind {
	case opBarrier:
	case opBcast:
		o.recv = mem.take(size) // the in-place buffer
	case opAllreduce:
		if floatSum {
			o.size = size / 8 * 8 // whole float64 elements
		}
		o.send = mem.take(o.size)
		o.recv = mem.take(o.size)
	case opAllgather:
		o.send = mem.take(size)
		o.recv = mem.take(size * n)
	case opGather:
		o.send = mem.take(size)
		if me == root {
			o.recv = mem.take(size * n)
		}
	case opScatter:
		if me == root {
			o.send = mem.take(size * n)
		}
		o.recv = mem.take(size)
	case opAlltoall:
		o.send = mem.take(size * n)
		o.recv = mem.take(size * n)
	default:
		panic(fmt.Sprintf("benchmark: unknown op %q", kind))
	}
	o.want = mem.take(o.size)
	return o
}

// block is the key of the bytes rank src contributes towards dst in
// iteration iter (dst is 0 for collectives with one block per source).
func (o *collective) block(iter uint64, src, dst int) uint64 {
	return mix(mix(mix(o.key, iter), uint64(src)), uint64(dst))
}

// reduceElems writes rank's allreduce contribution for iteration iter,
// or the expected result when rank is -1.
//
// Float64 sum: element i is an integer a in [-2^20, 2^20) from the
// iteration's stream; rank r contributes a*(r+1), so the result is
// a*n(n+1)/2 and every partial sum is exact whatever the reduction order.
//
// Byte max: element i has a value a and a winning rank w from the
// stream; w contributes a, everyone else a/2, so the result is a and
// the rank holding the maximum changes from element to element.
func (o *collective) reduceElems(dst []byte, iter uint64, rank int) {
	n := o.c.Size()
	key := o.block(iter, 0, 0)
	if !o.floatSum {
		for i := range dst {
			h := mix(key, uint64(i))
			a := byte(h)
			if rank >= 0 && rank != int((h>>8)%uint64(n)) {
				a >>= 1
			}
			dst[i] = a
		}
		return
	}
	mul := int64(rank + 1)
	if rank < 0 {
		mul = int64(n * (n + 1) / 2)
	}
	fillBlock(dst, key)
	for i := 0; i+8 <= len(dst); i += 8 {
		a := int64(binary.LittleEndian.Uint64(dst[i:])>>43) - 1<<20
		binary.BigEndian.PutUint64(dst[i:], math.Float64bits(float64(a*mul)))
	}
}

// prepare regenerates this rank's send buffer for iteration iter.
func (o *collective) prepare(iter uint64) {
	n, me := o.c.Size(), o.c.Rank()
	switch o.kind {
	case opBcast:
		if me == o.root {
			fillBlock(o.recv, o.block(iter, o.root, 0))
		}
	case opAllreduce:
		o.reduceElems(o.send, iter, me)
	case opAllgather, opGather:
		fillBlock(o.send, o.block(iter, me, 0))
	case opScatter:
		if me == o.root {
			for r := 0; r < n; r++ {
				fillBlock(o.send[r*o.size:(r+1)*o.size], o.block(iter, o.root, r))
			}
		}
	case opAlltoall:
		for r := 0; r < n; r++ {
			fillBlock(o.send[r*o.size:(r+1)*o.size], o.block(iter, me, r))
		}
	}
}

// call invokes the collective through the public mpi.Comm method.
func (o *collective) call() error {
	switch o.kind {
	case opBarrier:
		return o.c.Barrier()
	case opBcast:
		return o.c.Bcast(o.recv, o.root)
	case opAllreduce:
		if o.floatSum {
			return o.c.Allreduce(o.send, o.recv, mpi.Float64, mpi.OpSum)
		}
		return o.c.Allreduce(o.send, o.recv, mpi.Byte, mpi.OpMax)
	case opAllgather:
		return o.c.Allgather(o.send, o.recv)
	case opGather:
		return o.c.Gather(o.send, o.recv, o.root)
	case opScatter:
		return o.c.Scatter(o.send, o.recv, o.root)
	default:
		return o.c.Alltoall(o.send, o.recv)
	}
}

// verify recomputes what this rank must hold after iteration iter and
// compares. A barrier has no data; its ordering property (nobody leaves
// before everybody entered) is checked from timestamps by barrierHolds.
func (o *collective) verify(iter uint64) bool {
	n, me := o.c.Size(), o.c.Rank()
	// blocks compares recv, one block per source rank, against the
	// bytes each source must have contributed.
	blocks := func(key func(src int) uint64) bool {
		for s := 0; s < n; s++ {
			fillBlock(o.want, key(s))
			if !bytes.Equal(o.recv[s*o.size:(s+1)*o.size], o.want) {
				return false
			}
		}
		return true
	}
	switch o.kind {
	case opBcast:
		fillBlock(o.want, o.block(iter, o.root, 0))
	case opAllreduce:
		o.reduceElems(o.want, iter, -1)
	case opScatter:
		fillBlock(o.want, o.block(iter, o.root, me))
	case opAllgather:
		return blocks(func(s int) uint64 { return o.block(iter, s, 0) })
	case opGather:
		return me != o.root || blocks(func(s int) uint64 { return o.block(iter, s, 0) })
	case opAlltoall:
		return blocks(func(s int) uint64 { return o.block(iter, s, me) })
	default: // barrier
		return true
	}
	return bytes.Equal(o.recv, o.want)
}

// barrierHolds is the barrier oracle: on a shared clock, no rank may
// leave before the last rank has entered.
func barrierHolds(starts, ends []int64) bool {
	lastIn, firstOut := starts[0], ends[0]
	for r := range starts {
		if starts[r] > lastIn {
			lastIn = starts[r]
		}
		if ends[r] < firstOut {
			firstOut = ends[r]
		}
	}
	return firstOut >= lastIn
}
