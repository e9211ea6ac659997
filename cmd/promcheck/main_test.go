package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain runs the command itself when the test re-executes its own
// binary with PROMCHECK_ARGS set, so a test can read the exit status and
// the error output of a real invocation.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("PROMCHECK_ARGS"); ok {
		os.Args = append([]string{"promcheck"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestPositionalArgumentIsAUsageError holds that an argument that is not
// a flag exits 2 with a one-line usage error naming it: "promcheck -file
// f extra" validated f and exited 0, and "promcheck f" blamed a missing
// -url or -file.
func TestPositionalArgumentIsAUsageError(t *testing.T) {
	file := filepath.Join(t.TempDir(), "exposition.txt")
	if err := os.WriteFile(file, []byte("# TYPE up gauge\nup 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ args, stray string }{
		{"-file " + file + " extra", "extra"},
		{file, file},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(), "PROMCHECK_ARGS="+tc.args)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%s: %v, want exit status 2\n%s", tc.args, err, out)
			continue
		}
		if !strings.HasPrefix(string(out), "promcheck: "+tc.stray+" ") || strings.Count(string(out), "\n") != 1 {
			t.Errorf("%s: output %q, want one usage line naming %s", tc.args, out, tc.stray)
		}
	}
}
