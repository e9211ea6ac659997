package main

import "testing"

// TestNegativeGridFlagsAreUsageErrors holds that a negative -reps, -step
// or -max exits 2 before any figure is measured: a negative step never
// reaches the maximum size, so the size grid would grow without end.
// Figure 13 sweeps N, not the size grid, so a run that got past the
// check exits 0 quickly instead of exhausting memory. A positional
// argument exits 2 too: "mcastbench 7" ran every figure.
func TestNegativeGridFlagsAreUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		name            string
		reps, step, max int
		args            []string
	}{
		{"reps", -3, 250, 5000, nil},
		{"step", 1, -1, 5000, nil},
		{"max", 1, 250, -1, nil},
		{"positional", 1, 250, 5000, []string{"7"}},
	} {
		figure, quick := "13", false
		seed := uint64(1)
		var csvDir, trajec, gate, trOut, cpuOut, memOut string
		reps, step, max := tc.reps, tc.step, tc.max
		if code := run(tc.args, &figure, &reps, &step, &max, &seed, &quick, &csvDir, &trajec, &gate, &trOut, &cpuOut, &memOut); code != 2 {
			t.Errorf("%s: exit %d, want 2", tc.name, code)
		}
	}
}
