package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/id"
	"repro/internal/obs"
	"repro/internal/simnet"
)

// TestRun drives the whole command in-process: one koshad over simnet with
// its ctl service attached, run() in place of main.
func TestRun(t *testing.T) {
	net := simnet.New(simnet.LAN100)
	node := core.NewNode("k0", id.FromUint64(7), net, core.Config{SlowOpNS: 1})
	if _, err := node.Join(""); err != nil {
		t.Fatal(err)
	}
	node.AttachCtl()
	local := filepath.Join(t.TempDir(), "doc.txt")
	if err := os.WriteFile(local, []byte("hello kosha\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ctl := func(args ...string) (code int, stdout, stderr string) {
		var out, errw bytes.Buffer
		code = run(net, "ctl", node.Addr(), args, &out, &errw)
		return code, out.String(), errw.String()
	}

	for _, args := range [][]string{{}, {"frobnicate"}, {"ls"}, {"get", "/a", "/b"}, {"put"}, {"samples", "many"}} {
		code, out, errw := ctl(args...)
		if code != 2 || out != "" || !strings.HasPrefix(errw, "usage: koshactl") {
			t.Errorf("%q: exit %d, stdout %q, stderr %q; want exit 2 and the usage on stderr", args, code, out, errw)
		}
	}
	if code, _, errw := ctl("trace", "dump", "-nosuchflag"); code != 2 || !strings.Contains(errw, "nosuchflag") {
		t.Errorf("trace dump -nosuchflag: exit %d, stderr %q; want exit 2 naming the flag", code, errw)
	}

	for _, step := range []struct {
		args []string
		want string
	}{
		{[]string{"mkdir", "/alice/notes"}, ""},
		{[]string{"put", "/alice/doc.txt", local}, "stored 12 bytes at /alice/doc.txt\n"},
		{[]string{"get", "/alice/doc.txt"}, "hello kosha\n"},
		{[]string{"ls", "/alice"}, "doc.txt\nnotes/\n"},
		{[]string{"ls", "/"}, "alice/\n"},
		{[]string{"stat", "/alice/doc.txt"}, "/alice/doc.txt: file mode 644 size 12\n"},
		{[]string{"tree", "/alice"}, "/alice\n  doc.txt (12 bytes)\n  notes/\n"},
		{[]string{"rm", "/alice/notes"}, ""},
		{[]string{"-node", "k0", "ls", "/alice"}, "doc.txt\n"},
	} {
		if code, out, errw := ctl(step.args...); code != 0 || out != step.want || errw != "" {
			t.Errorf("%q: exit %d, stdout %q, stderr %q; want exit 0 and %q", step.args, code, out, errw, step.want)
		}
	}

	code, out, errw := ctl("-json", "stats")
	var stats core.StatsPayload
	if code != 0 || errw != "" || json.Unmarshal([]byte(out), &stats) != nil || stats.Addr != "k0" {
		t.Errorf("-json stats: exit %d, stderr %q, stdout %q; want the node's stats as JSON", code, errw, out)
	}
	if code, out, _ := ctl("stats"); code != 0 || !strings.HasPrefix(out, "node k0\n") {
		t.Errorf("stats: exit %d, stdout %q", code, out)
	}

	// An error from the node: exit 1, the command's name once.
	code, out, errw = ctl("get", "/alice/never")
	if code != 1 || out != "" || !strings.HasPrefix(errw, "koshactl: ") || strings.Count(errw, "koshactl") != 1 {
		t.Errorf("get of a missing file: exit %d, stdout %q, stderr %q", code, out, errw)
	}
	if code, _, errw := ctl("-node", "nobody", "status"); code != 1 || !strings.HasPrefix(errw, "koshactl: ") {
		t.Errorf("status of an absent node: exit %d, stderr %q", code, errw)
	}

	// Traces. A second node joins, and k0's mount writes a file under a
	// name k1 owns, so the op's tree holds k1's server spans.
	k1 := core.NewNode("k1", id.FromUint64(1<<62), net, core.Config{})
	if _, err := k1.Join(node.Addr()); err != nil {
		t.Fatal(err)
	}
	k1.AttachCtl()
	name := ""
	for i := 0; name == ""; i++ {
		res, err := node.Overlay().Route(core.Key(fmt.Sprintf("bob%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if res.Node.Addr == k1.Addr() {
			name = fmt.Sprintf("bob%d", i)
		}
	}
	path := "/" + name + "/f.txt"
	if _, err := node.NewMount().WriteFile(path, []byte("traced")); err != nil {
		t.Fatal(err)
	}
	header := regexp.MustCompile(`(?m)^#\d+ WRITE ` + path + ` .* served by k1`)
	code, out, errw = ctl("trace", "dump")
	if code != 0 || errw != "" || !header.MatchString(out) || !strings.Contains(out, "\n    apply ") {
		t.Errorf("trace dump: exit %d, stderr %q, stdout %q; want the WRITE served by k1 and its apply stage", code, errw, out)
	}
	code, out, errw = ctl("trace", "dump", "-op", "write", "-path", "/"+name+"/")
	if code != 0 || errw != "" || len(regexp.MustCompile(`(?m)^#`).FindAllString(out, -1)) != 1 || !header.MatchString(out) {
		t.Errorf("trace dump -op write -path: exit %d, stderr %q, stdout %q; want the one WRITE", code, errw, out)
	}
	code, out, errw = ctl("-json", "trace", "dump")
	var traces []obs.Trace
	if code != 0 || errw != "" || json.Unmarshal([]byte(out), &traces) != nil {
		t.Fatalf("-json trace dump: exit %d, stderr %q, stdout %q; want the traces as JSON", code, errw, out)
	}
	var write *obs.Trace
	for i := range traces {
		if traces[i].Op == obs.OpWrite && traces[i].Path == path {
			write = &traces[i]
		}
	}
	if write == nil || write.ServedBy != "k1" {
		t.Fatalf("-json trace dump holds no WRITE of %s served by k1: %+v", path, traces)
	}
	if code, out, errw := ctl("trace", "-slow"); code != 0 || errw != "" || !header.MatchString(out) {
		t.Errorf("trace -slow: exit %d, stderr %q, stdout %q; want the WRITE, over a 1 ns threshold", code, errw, out)
	}

	// The assembled tree: k0's origin record, k1's kosha.apply and, under
	// it, the mirror k1 sent back to k0.
	traceID := obs.FormatTraceID(write.Hi, write.Lo)
	code, out, errw = ctl("trace", "-id", traceID)
	for _, want := range []string{
		`^trace ` + traceID + `  WRITE ` + path + `  origin k0 `,
		`(?m)^  3 spans across 2 nodes$`,
		`(?m)^  kosha\.apply +node=k1 +from=k0 `,
		`(?m)^    kosha\.mirror +node=k0 +from=k1 `,
	} {
		if code != 0 || errw != "" || !regexp.MustCompile(want).MatchString(out) {
			t.Errorf("trace -id: exit %d, stderr %q, stdout %q; want a match for %s", code, errw, out, want)
		}
	}
}
