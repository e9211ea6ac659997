package mpi_test

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/baseline"
	"repro/internal/mpi"
	"repro/internal/topo"
	"repro/internal/transport"
)

// placedEndpoint is a MemEndpoint that also reports a topology.
type placedEndpoint struct {
	*transport.MemEndpoint
	placement *topo.Map
}

func (e placedEndpoint) TopoMap() *topo.Map { return e.placement }

// scopeCalls runs each of CollCtx's four multicast methods on s and
// returns their errors in declaration order.
func scopeCalls(cc mpi.CollCtx, s mpi.Scope) map[string]error {
	errs := map[string]error{}
	errs["Multicast"] = cc.Multicast(s, nil, transport.ClassControl)
	_, errs["RecvMulticast"] = cc.RecvMulticast(s)
	_, _, errs["RecvMulticastTimeout"] = cc.RecvMulticastTimeout(s, 1)
	errs["MulticastRepair"] = cc.MulticastRepair(s, nil, transport.ClassControl, 0, nil)
	return errs
}

// TestScopeValidation: a scope that names no group of the communicator
// is refused by every multicast method, before anything is sent or
// waited for — a receive on Slice(999) used to block forever on a tag
// nobody sends.
func TestScopeValidation(t *testing.T) {
	const n, fanout = 4, 2
	run := func(placement *topo.Map, bad []mpi.Scope) {
		t.Helper()
		net := transport.NewMemNet(n)
		eps := make([]transport.Endpoint, n)
		for i := range eps {
			eps[i] = placedEndpoint{net.Endpoint(i), placement}
		}
		err := mpi.RunEndpoints(eps, mpi.Algorithms{}, func(c *mpi.Comm) error {
			cc := c.BeginColl()
			for _, s := range bad {
				for method, err := range scopeCalls(cc, s) {
					if !errors.Is(err, mpi.ErrInvalidRank) {
						return fmt.Errorf("%s(%+v) = %v, want ErrInvalidRank", method, s, err)
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Error(err)
		}
	}
	run(nil, []mpi.Scope{mpi.Slice(-1), mpi.Slice(n), mpi.Slice(999), mpi.Seg(0)})
	run(topo.Uniform(n, fanout), []mpi.Scope{mpi.Slice(-1), mpi.Slice(n), mpi.Seg(-1), mpi.Seg(n / fanout), mpi.Seg(999)})
}

// TestScopesDeliverApart: on a placed communicator a multicast reaches
// the ranks that listen on its scope and nobody else.
func TestScopesDeliverApart(t *testing.T) {
	const n, fanout = 4, 2
	placement := topo.Uniform(n, fanout) // segments {0,1} and {2,3}
	net := transport.NewMemNet(n)
	eps := make([]transport.Endpoint, n)
	for i := range eps {
		eps[i] = placedEndpoint{net.Endpoint(i), placement}
	}
	err := mpi.RunEndpoints(eps, baseline.Algorithms(), func(c *mpi.Comm) error {
		me := c.Rank()
		for _, tc := range []struct {
			scope   mpi.Scope
			hearers []int // besides the sender, rank 0
		}{
			{mpi.Whole, []int{1, 2, 3}},
			{mpi.Slice(3), []int{3}},
			{mpi.Seg(0), []int{1}},
			{mpi.Seg(1), []int{2, 3}},
		} {
			if err := c.Barrier(); err != nil { // every listener is in
				return err
			}
			cc := c.BeginColl()
			want := fmt.Sprint(tc.scope)
			if me == 0 {
				if err := cc.Multicast(tc.scope, []byte(want), transport.ClassData); err != nil {
					return err
				}
				continue
			}
			// Whatever arrives for this operation, whichever of this
			// rank's scopes it is addressed to.
			var heard []string
			for _, s := range []mpi.Scope{mpi.Whole, mpi.Slice(me), mpi.Seg(placement.SegmentOf(me))} {
				m, ok, err := cc.RecvMulticastTimeout(s, 20_000_000)
				if err != nil {
					return err
				}
				if ok != (s == tc.scope) {
					return fmt.Errorf("rank %d listening on %+v: heard=%v while rank 0 sent to %+v", me, s, ok, tc.scope)
				}
				if ok {
					heard = append(heard, string(m.Payload))
				}
			}
			if isHearer := slices.Contains(tc.hearers, me); isHearer != (len(heard) == 1) || isHearer && heard[0] != want {
				return fmt.Errorf("rank %d heard %q of a multicast to %+v", me, heard, tc.scope)
			}
		}
		return nil
	})
	if err != nil {
		t.Error(err)
	}
}
