package main

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the tests below re-execute the test binary as koshabench.
func TestMain(m *testing.M) {
	if os.Getenv("KOSHABENCH_AS_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// An unknown -exp used to skip every experiment and exit 0 in silence.
func TestUnknownExperimentFailsLoudly(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-exp", "tabel1")
	cmd.Env = append(os.Environ(), "KOSHABENCH_AS_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() == 0 {
		t.Fatalf("unknown experiment: err = %v, want a non-zero exit", err)
	}
	for _, want := range []string{`"tabel1"`, "table1", "stream", "rebalance", "all"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr %q does not mention %s", stderr.String(), want)
		}
	}
}

func TestKnownExperimentStillRuns(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-exp", "model", "-quick")
	cmd.Env = append(os.Environ(), "KOSHABENCH_AS_MAIN=1")
	out, err := cmd.Output()
	if err != nil || len(out) == 0 {
		t.Fatalf("-exp model: err = %v, %d bytes of output", err, len(out))
	}
}
