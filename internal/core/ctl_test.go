package core

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/localfs"
)

func TestCtlRoundTrip(t *testing.T) {
	_, nodes := testCluster(t, 4, 81, Config{Replicas: 1})
	for _, nd := range nodes {
		nd.AttachCtl()
	}
	ctl := &CtlClient{Net: nodes[0].net, From: nodes[0].Addr(), To: nodes[2].Addr()}

	if _, err := ctl.WriteFile("/ops/readme.md", []byte("# kosha")); err != nil {
		t.Fatal(err)
	}
	data, _, err := ctl.ReadFile("/ops/readme.md")
	if err != nil || !bytes.Equal(data, []byte("# kosha")) {
		t.Fatalf("read %q err=%v", data, err)
	}
	ents, _, err := ctl.List("/ops")
	if err != nil || len(ents) != 1 || ents[0].Name != "readme.md" {
		t.Fatalf("list %v err=%v", ents, err)
	}
	st, _, err := ctl.Stat("/ops/readme.md")
	if err != nil || st.Type != localfs.TypeRegular || st.Size != 7 {
		t.Fatalf("stat %+v err=%v", st, err)
	}
	if _, err := ctl.MkdirAll("/ops/logs/2026"); err != nil {
		t.Fatal(err)
	}
	status, _, err := ctl.Status()
	if err != nil || status.NodeID == "" {
		t.Fatalf("status %+v err=%v", status, err)
	}
	peers, _, err := ctl.Peers()
	if err != nil || len(peers) != 3 {
		t.Fatalf("peers %v err=%v", peers, err)
	}
	if _, err := ctl.RemoveAll("/ops"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ctl.Stat("/ops"); err == nil {
		t.Fatal("stat of removed tree should fail")
	}
	// Errors propagate as messages.
	if _, _, err := ctl.ReadFile("/never"); err == nil {
		t.Fatal("read of missing file should fail")
	}
	if _, _, err := ctl.List("/never"); err == nil {
		t.Fatal("list of missing dir should fail")
	}
}

// cmd/koshactl prints "koshactl: <err>"; the client library must not add the
// command's name a second time (errors used to read "koshactl: koshactl: ...").
func TestCtlErrorsCarryNoCommandPrefix(t *testing.T) {
	_, nodes := testCluster(t, 3, 82, Config{Replicas: 1})
	nodes[1].AttachCtl()
	ctl := &CtlClient{Net: nodes[0].net, From: nodes[0].Addr(), To: nodes[1].Addr()}
	if _, err := ctl.WriteFile("/ops/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	_, _, missing := ctl.ReadFile("/never")
	_, _, notDir := ctl.List("/ops/f")
	for _, err := range []error{missing, notDir} {
		if err == nil || strings.Contains(err.Error(), "koshactl") {
			t.Errorf("ctl error = %v, want a message without the command's name", err)
		}
	}
	if notDir != nil && !strings.Contains(notDir.Error(), "is not a directory") {
		t.Errorf("list of a file: %v", notDir)
	}
}
