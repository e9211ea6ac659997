package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the command itself when the test re-executes its own
// binary with NETSIM_ARGS set, so a test can read the exit status and
// the error output of a real invocation.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("NETSIM_ARGS"); ok {
		os.Args = append([]string{"netsim"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadCountsAreUsageErrors holds that a count no traffic pattern can
// take exits 2 with a one-line usage error before any station is built:
// a negative -n or -size reached make and panicked, and -n 0 indexed a
// station the mcast pattern does not have. A -size above the MTU
// (ethernet.MaxPayload) was timed as one frame the modelled Ethernet
// cannot carry. A positional argument is one too: "netsim mcast" ran
// the fanin pattern.
func TestBadCountsAreUsageErrors(t *testing.T) {
	for _, args := range []string{
		"-n -1",
		"-n 0 -pattern mcast",
		"-size -3",
		"-size 1501",
		"-frames -2",
		"mcast",
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(), "NETSIM_ARGS="+args)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%s: %v, want exit status 2\n%s", args, err, out)
			continue
		}
		if flag := strings.Fields(args)[0]; !strings.HasPrefix(string(out), "netsim: "+flag+" ") || strings.Contains(string(out), "panic") {
			t.Errorf("%s: output %q, want one usage line naming %s", args, out, flag)
		}
	}
}
