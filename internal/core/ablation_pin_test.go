package core_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/simnet"
)

// ablationPin is what TestAblationBcastDeterminismPin holds of one run:
// the nanosecond the last rank finished and the world's engine events.
type ablationPin struct {
	finish int64
	events uint64
}

// TestAblationBcastDeterminismPin holds the timelines of the two
// comparison broadcasts that no benchmark workload runs — the Orca-style
// sequencer (a forward to rank 0, then a scout-gated broadcast from it)
// and the unsynchronized multicast — to the constants recorded before
// they were written as rounds of the round engine: five ranks, three
// back-to-back broadcasts of 0, 1,000 and 5,000 B from roots 0 and 3, on
// the hub and the switch. A rewrite that sends one more frame, or the
// same frames a nanosecond apart, moves a row.
func TestAblationBcastDeterminismPin(t *testing.T) {
	sizes := []int{0, 1000, 5000}
	for _, tc := range []struct {
		name string
		fn   func(c *mpi.Comm, buf []byte, root int) error
		topo simnet.Topology
		root int
		want [3]ablationPin // one per size
	}{
		{"sequencer", core.BcastSequencer, simnet.Hub, 0, [3]ablationPin{{1_083_540, 261}, {1_395_540, 261}, {2_905_620, 279}}},
		{"sequencer", core.BcastSequencer, simnet.Hub, 3, [3]ablationPin{{1_162_380, 289}, {1_645_100, 281}, {4_428_920, 297}}},
		{"sequencer", core.BcastSequencer, simnet.Switch, 0, [3]ablationPin{{1_073_160, 299}, {1_625_160, 299}, {3_237_000, 398}}},
		{"sequencer", core.BcastSequencer, simnet.Switch, 3, [3]ablationPin{{1_205_160, 334}, {1_951_440, 334}, {5_175_120, 478}}},
		{"unsafe", core.BcastUnsafe, simnet.Hub, 0, [3]ablationPin{{316_020, 108}, {498_260, 116}, {1_618_340, 134}}},
		{"unsafe", core.BcastUnsafe, simnet.Hub, 3, [3]ablationPin{{246_900, 124}, {441_940, 136}, {1_618_900, 166}}},
		{"unsafe", core.BcastUnsafe, simnet.Switch, 0, [3]ablationPin{{207_240, 150}, {481_480, 150}, {1_713_480, 249}}},
		{"unsafe", core.BcastUnsafe, simnet.Switch, 3, [3]ablationPin{{207_240, 150}, {481_480, 150}, {1_713_480, 249}}},
	} {
		for i, size := range sizes {
			if got := runAblationPin(t, tc.fn, tc.topo, tc.root, size); got != tc.want[i] {
				t.Errorf("%s/%v/root %d/%d B moved: got {%d, %d}, want {%d, %d}",
					tc.name, tc.topo, tc.root, size, got.finish, got.events, tc.want[i].finish, tc.want[i].events)
			}
		}
	}
}

// runAblationPin broadcasts size bytes from root three times on five
// ranks under bcast, checking every rank's bytes.
func runAblationPin(t *testing.T, bcast func(c *mpi.Comm, buf []byte, root int) error, topo simnet.Topology, root, size int) ablationPin {
	t.Helper()
	var finish int64 // ranks run one at a time under the engine
	nw, err := cluster.RunSim(5, topo, simnet.DefaultProfile(), mpi.Algorithms{Bcast: bcast}, func(c *mpi.Comm) error {
		for k := 0; k < 3; k++ {
			want := bytes.Repeat([]byte{byte(k + 1)}, size)
			buf := make([]byte, size)
			if c.Rank() == root {
				copy(buf, want)
			}
			if err := c.Bcast(buf, root); err != nil {
				return err
			}
			if !bytes.Equal(buf, want) {
				return fmt.Errorf("rank %d: broadcast %d corrupted", c.Rank(), k)
			}
		}
		finish = max(finish, c.Now())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return ablationPin{finish: finish, events: nw.Events()}
}
