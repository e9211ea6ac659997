package bench

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/simnet"
)

// TestBufferSizeCheckedBeforeAnySend holds the one place buffer shapes
// are checked: the mpi.Comm dispatchers. For every registered set and
// every collective with a shape, one rank calls it with a mis-sized
// buffer while its peers stay out of the operation; the call must fail
// with mpi.ErrBufferSize before that rank sends a frame. A set whose
// implementation checked only after its first send would put frames on
// the wire or block on a peer that never comes (package baseline's
// Reduce checked the root's recv only after every contribution had
// arrived).
func TestBufferSizeCheckedBeforeAnySend(t *testing.T) {
	const n, root, k = 8, 1, 8 // k: bytes per rank, one float64
	buf := func(bytes int) []byte { return make([]byte, bytes) }
	f64 := mpi.Float64
	calls := []struct {
		op   string
		call func(c *mpi.Comm) error
	}{
		{"reduce recv", func(c *mpi.Comm) error { return c.Reduce(buf(k), buf(2*k), f64, mpi.OpSum, root) }},
		{"allreduce recv", func(c *mpi.Comm) error { return c.Allreduce(buf(k), buf(2*k), f64, mpi.OpSum) }},
		{"gather recv", func(c *mpi.Comm) error { return c.Gather(buf(k), buf(n*k+1), root) }},
		{"scatter send", func(c *mpi.Comm) error { return c.Scatter(buf(n*k-1), buf(k), root) }},
		{"allgather recv", func(c *mpi.Comm) error { return c.Allgather(buf(k), buf((n-1)*k)) }},
		{"alltoall send", func(c *mpi.Comm) error { return c.Alltoall(buf(n*k+1), buf(n*k+1)) }},
		{"alltoall recv", func(c *mpi.Comm) error { return c.Alltoall(buf(n*k), buf(n*k+k)) }},
		{"scan recv", func(c *mpi.Comm) error { return c.Scan(buf(k), buf(0), f64, mpi.OpSum) }},
		{"reduce_scatter send", func(c *mpi.Comm) error { return c.ReduceScatter(buf((n+1)*k), buf(k), f64, mpi.OpSum) }},
	}
	prof := *sharedUplinkProfile()
	for _, a := range Algorithms() {
		algs, err := Set(a)
		if err != nil {
			t.Fatal(err)
		}
		for _, cs := range calls {
			var got error
			nw, err := cluster.RunSim(n, simnet.SwitchShared, prof, algs, func(c *mpi.Comm) error {
				if c.Rank() == root {
					got = cs.call(c)
				}
				return nil
			})
			name := fmt.Sprintf("%s/%s", a, cs.op)
			if err != nil {
				t.Errorf("%s: %v", name, err)
				continue
			}
			if !errors.Is(got, mpi.ErrBufferSize) {
				t.Errorf("%s: got %v, want an error wrapping mpi.ErrBufferSize", name, got)
			}
			if frames := nw.Wire.TotalFrames(); frames != 0 {
				t.Errorf("%s: %d frames on the wire before the buffer was rejected", name, frames)
			}
		}
	}
}
