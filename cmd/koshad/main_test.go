package main

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/id"
	"repro/internal/pastry"
	"repro/internal/simnet"
)

// TestMain lets the tests below re-execute the test binary as koshad.
func TestMain(m *testing.M) {
	if os.Getenv("KOSHAD_AS_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// koshad runs the command with args and returns its exit code and output.
func koshad(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "KOSHAD_AS_MAIN=1")
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

// A non-positive -stabilize is refused with exit status 2 before the
// listener opens: the -listen address here has no port, so a daemon that
// got as far as listening would exit 1 with a listen error instead. It used
// to join the overlay and then panic in time.NewTicker.
func TestNonPositiveStabilizeIsRefused(t *testing.T) {
	for _, v := range []string{"0", "-1s"} {
		code, stdout, stderr := koshad(t, "-listen", "no-port", "-stabilize", v)
		if code != 2 || stdout != "" || !strings.Contains(stderr, "-stabilize") || strings.Contains(stderr, "panic") {
			t.Errorf("koshad -stabilize %s: exit %d, stdout %q, stderr %q; want exit 2, no output and a -stabilize message",
				v, code, stdout, stderr)
		}
	}
}

// A negative -capacity is refused the same way, before the listener opens.
// It used to reach the store, which treats a negative capacity as
// unlimited while FSSTAT reports it as the total.
func TestNegativeCapacityIsRefused(t *testing.T) {
	for _, v := range []string{"-1", "-1G"} {
		code, stdout, stderr := koshad(t, "-listen", "no-port", "-capacity", v)
		if code != 2 || stdout != "" || !strings.Contains(stderr, "-capacity "+v+":") || strings.Contains(stderr, "panic") {
			t.Errorf("koshad -capacity %s: exit %d, stdout %q, stderr %q; want exit 2, no output and a -capacity message",
				v, code, stdout, stderr)
		}
	}
}

func TestParseSize(t *testing.T) {
	cases := map[string]int64{
		"0":    0,
		"1024": 1024,
		"3K":   3 << 10,
		"512M": 512 << 20,
		"10G":  10 << 30,
		"10g":  10 << 30,
		" 2K ": 2 << 10,
	}
	for in, want := range cases {
		got, err := parseSize(in)
		if err != nil || got != want {
			t.Errorf("parseSize(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "x", "12Q", "G", "8589934592G", "-8589934593G"} {
		if _, err := parseSize(bad); err == nil {
			t.Errorf("parseSize(%q) accepted", bad)
		}
	}
}

// The daemon's maintenance round repairs the routing table as well as the
// leaf set. On an overlay larger than the leaf set, a crashed node that sits
// in another node's table but not in its leaf set survives a leaf-set
// Stabilize, which never probes it, and is purged by one maintain.
func TestMaintainPurgesADeadTableEntry(t *testing.T) {
	c, err := cluster.New(cluster.Options{Nodes: 40, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	holds := func(o *pastry.Node, dead pastry.NodeInfo) bool {
		for _, te := range o.TableEntries() {
			if te.Node.ID == dead.ID {
				return true
			}
		}
		return false
	}
	for _, a := range c.Nodes {
		o := a.Overlay()
		var victim pastry.NodeInfo
		for _, te := range o.TableEntries() {
			inLeaf := false
			for _, l := range o.Leaf() {
				inLeaf = inLeaf || l.ID == te.Node.ID
			}
			if !inLeaf {
				victim = te.Node
				break
			}
		}
		if victim.IsZero() {
			continue
		}
		for i, b := range c.Nodes {
			if b.Addr() == victim.Addr {
				c.Fail(i)
			}
		}
		o.Stabilize()
		if !holds(o, victim) {
			t.Fatalf("Stabilize alone purged %s from %s's table: the test no longer tells the two apart", victim.Addr, a.Addr())
		}
		maintain(a)
		if holds(o, victim) {
			t.Fatalf("after maintain, %s's table still names the crashed %s", a.Addr(), victim.Addr)
		}
		return
	}
	t.Fatal("no node has a table entry outside its leaf set")
}

// -redirects 0 and -replicas 0 each mean none: the node runs with no
// redirection and no replicas. -redirects 0 used to reach core.Config as 0,
// which selects the default of four redirections.
func TestZeroMeansNone(t *testing.T) {
	for _, c := range []struct {
		replicas, redirects         int
		wantReplicas, wantRedirects int
	}{{0, 0, 0, 0}, {1, 4, 1, 4}, {2, -1, 2, 0}} {
		got := core.NewNode("n", id.HashKey("n"), simnet.New(simnet.LAN100), config(1, c.replicas, c.redirects, 0, 0)).Config()
		if got.Replicas != c.wantReplicas || got.RedirectAttempts != c.wantRedirects {
			t.Errorf("-replicas %d -redirects %d: the node runs with K=%d and %d redirections, want K=%d and %d",
				c.replicas, c.redirects, got.Replicas, got.RedirectAttempts, c.wantReplicas, c.wantRedirects)
		}
	}
}
