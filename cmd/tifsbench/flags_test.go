package main

import (
	"errors"
	"os/exec"
	"strings"
	"testing"
)

// TestNegativeWidthsRejected: a negative -cores or -parallelism is a
// usage error. The process exits 2 with a message naming the flag,
// before any simulation starts, instead of panicking inside workload
// construction or silently selecting a default.
func TestNegativeWidthsRejected(t *testing.T) {
	bin := buildBench(t)
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-experiment", "fig1", "-cores", "-1"}, "cores -1: must be non-negative (0 selects 4)"},
		{[]string{"-experiment", "fig1", "-parallelism", "-1"}, "parallelism -1: must be non-negative (0 selects GOMAXPROCS)"},
	} {
		out, err := exec.Command(bin, tc.args...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v: err %v, want exit status 2\n%s", tc.args, err, out)
			continue
		}
		if !strings.Contains(string(out), tc.want) {
			t.Errorf("%v: output %q does not contain %q", tc.args, out, tc.want)
		}
		if strings.Contains(string(out), "panic") {
			t.Errorf("%v: panicked:\n%s", tc.args, out)
		}
	}
}
