package workload_test

import (
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/mpi"
	"repro/internal/workload"
)

// TestEveryRegisteredOpDispatches runs each registered op once on the
// in-process transport: a registered op must neither error nor panic.
func TestEveryRegisteredOpDispatches(t *testing.T) {
	for _, op := range workload.Ops() {
		op := op
		t.Run(string(op), func(t *testing.T) {
			err := mpi.RunMem(4, baseline.Algorithms(), func(c *mpi.Comm) error {
				return workload.Make(c, op, 64, 0)()
			})
			if err != nil {
				t.Fatalf("op %q: %v", op, err)
			}
		})
	}
}

// TestUnknownOpErrors: a typo'd op must fail loudly instead of silently
// measuring some other collective.
func TestUnknownOpErrors(t *testing.T) {
	err := mpi.RunMem(2, mpi.Algorithms{}, func(c *mpi.Comm) error {
		return workload.Make(c, "bcst", 64, 0)()
	})
	if err == nil || !strings.Contains(err.Error(), "unknown op") {
		t.Fatalf("unknown op error = %v, want unknown-op failure", err)
	}
}
