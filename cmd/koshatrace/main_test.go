package main

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the tests below re-execute the test binary as koshatrace.
func TestMain(m *testing.M) {
	if os.Getenv("KOSHATRACE_AS_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// koshatrace runs the command with args and returns its exit code and output.
func koshatrace(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "KOSHATRACE_AS_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode(), out.String(), errOut.String()
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0, out.String(), errOut.String()
}

// A bad -kind or -nodes is refused with exit status 2 before anything is
// printed. A negative node count used to panic in the generator, and a zero
// one printed an 840-hour trace of no machines and exited 0.
func TestBadFlagsFailLoudly(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-kind", "bogus"}, `"bogus"`},
		{[]string{"-kind", "avail", "-nodes", "0"}, "-nodes 0"},
		{[]string{"-kind", "avail", "-nodes", "-3"}, "-nodes -3"},
	} {
		code, stdout, stderr := koshatrace(t, c.args...)
		if code != 2 || stdout != "" || !strings.Contains(stderr, c.want) {
			t.Errorf("koshatrace %v: exit %d, stdout %q, stderr %q; want exit 2, no output and %s on stderr",
				c.args, code, stdout, stderr, c.want)
		}
	}
}

// Both kinds still run: a header line, then one CSV row per file or hour.
func TestKindsRun(t *testing.T) {
	for _, c := range []struct {
		args   []string
		header string
	}{
		{[]string{"-kind", "fs", "-small"}, "# users="},
		{[]string{"-kind", "avail", "-nodes", "5"}, "# hours=840 nodes=5 "},
	} {
		code, stdout, stderr := koshatrace(t, c.args...)
		lines := strings.Split(strings.TrimSpace(stdout), "\n")
		if code != 0 || stderr != "" || !strings.HasPrefix(lines[0], c.header) || len(lines) < 2 || !strings.Contains(lines[1], ",") {
			t.Errorf("koshatrace %v: exit %d, stderr %q, %d lines starting %q; want exit 0 and a %q header over CSV rows",
				c.args, code, stderr, len(lines), lines[0], c.header)
		}
	}
}
