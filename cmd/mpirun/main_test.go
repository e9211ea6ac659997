package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the command itself when the test re-executes its own
// binary with MPIRUN_ARGS set, so a test can read the exit status and
// the error output of a real invocation.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("MPIRUN_ARGS"); ok {
		os.Args = append([]string{"mpirun"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadCountsAreUsageErrors holds that a count no run can take exits 2
// with a one-line usage error before any socket opens: a negative -size
// or -reps reached make and panicked, -reps 0 indexed an empty latency
// list, a world without ranks exited 1 as if a run had failed, a loss
// rate of 1 hung the run, and a negative one ran lossless. A positional
// argument is one too: "mpirun -n 2 allgather" ran a bcast.
func TestBadCountsAreUsageErrors(t *testing.T) {
	for _, args := range []string{
		"-size -5",
		"-reps -3",
		"-reps 0",
		"-n 0",
		"-n -2",
		"-topo -1",
		"-p2ploss 1",
		"-p2ploss -0.5",
		"-loss 1.5",
		"-loss -0.01",
		"allgather",
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(), "MPIRUN_ARGS=-algorithm mpich "+args)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%s: %v, want exit status 2\n%s", args, err, out)
			continue
		}
		if flag := strings.Fields(args)[0]; !strings.HasPrefix(string(out), "mpirun: "+flag+" ") || strings.Contains(string(out), "panic") {
			t.Errorf("%s: output %q, want one usage line naming %s", args, out, flag)
		}
	}
}
