package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildSim compiles the tifssim binary into a scratch dir.
func buildSim(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "tifssim")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestNegativeCoresRejected: a negative -cores is a usage error. The
// process exits 2 with a message naming the flag instead of panicking
// inside workload construction.
func TestNegativeCoresRejected(t *testing.T) {
	bin := buildSim(t)
	out, err := exec.Command(bin, "-cores", "-1").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("err %v, want exit status 2\n%s", err, out)
	}
	if want := "cores -1: must be non-negative (0 selects 4)"; !strings.Contains(string(out), want) {
		t.Errorf("output %q does not contain %q", out, want)
	}
	if strings.Contains(string(out), "panic") {
		t.Errorf("panicked:\n%s", out)
	}
}
