package main

import "testing"

// TestNegativeGridFlagsAreUsageErrors holds that a negative -reps, -step
// or -max exits 2 before any figure is measured: a negative step never
// reaches the maximum size, so the size grid would grow without end.
// Figure 13 sweeps N, not the size grid, so a run that got past the
// check exits 0 quickly instead of exhausting memory.
func TestNegativeGridFlagsAreUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		name            string
		reps, step, max int
	}{
		{"reps", -3, 250, 5000},
		{"step", 1, -1, 5000},
		{"max", 1, 250, -1},
	} {
		figure, quick := "13", false
		seed := uint64(1)
		var csvDir, trajec, gate, trOut, cpuOut, memOut string
		reps, step, max := tc.reps, tc.step, tc.max
		if code := run(&figure, &reps, &step, &max, &seed, &quick, &csvDir, &trajec, &gate, &trOut, &cpuOut, &memOut); code != 2 {
			t.Errorf("-%s negative: exit %d, want 2", tc.name, code)
		}
	}
}
