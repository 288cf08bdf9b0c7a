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

// TestBadWorkloadListRejected: a -workloads list naming an unknown
// workload, or one workload twice, exits 2 before any work starts,
// including before a -submit reaches the server.
func TestBadWorkloadListRejected(t *testing.T) {
	bin := buildBench(t)
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-experiment", "fig13", "-workloads", "OLTP-DB3"}, `unknown workload "OLTP-DB3"`},
		{[]string{"-experiment", "fig13", "-workloads", "OLTP-DB2,OLTP-DB2"}, `workload "OLTP-DB2" listed twice`},
		{[]string{"-experiment", "fig13", "-workloads", "OLTP-DB2, OLTP-DB2", "-submit", "http://127.0.0.1:1"}, `workload "OLTP-DB2" listed twice`},
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
	}
}
