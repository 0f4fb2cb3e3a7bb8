package main

import (
	"bytes"
	"encoding/json"
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

// A bad -format used to print a text table and exit 0, and so did -format
// json for the experiments that had no JSON renderer: now every format is
// either produced or refused before anything runs.
func TestUnknownFormatFailsLoudly(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-exp", "model", "-format", "bogus")
	cmd.Env = append(os.Environ(), "KOSHABENCH_AS_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 2 {
		t.Fatalf("unknown format: err = %v, want exit status 2", err)
	}
	if stdout.Len() != 0 {
		t.Errorf("unknown format still printed a result: %q", stdout.String())
	}
	for _, want := range []string{`"bogus"`, "table", "csv", "json"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr %q does not mention %s", stderr.String(), want)
		}
	}
}

// Every experiment renders in every format; model stands in for the rest here
// (make smoke and the acceptance sweep cover the others).
func TestKnownExperimentStillRuns(t *testing.T) {
	for _, format := range []string{"table", "csv", "json"} {
		cmd := exec.Command(os.Args[0], "-exp", "model", "-quick", "-format", format)
		cmd.Env = append(os.Environ(), "KOSHABENCH_AS_MAIN=1")
		out, err := cmd.Output()
		if err != nil || len(out) == 0 {
			t.Fatalf("-exp model -format %s: err = %v, %d bytes of output", format, err, len(out))
		}
		if isJSON := json.Valid(out); isJSON != (format == "json") {
			t.Errorf("-format %s: output is JSON = %v:\n%s", format, isJSON, out)
		}
	}
}
