package main

import (
	"bufio"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dynprof/internal/core"
	"dynprof/internal/machine"
	"dynprof/internal/serve"

	goerrors "errors"
)

func TestParseDeck(t *testing.T) {
	deck, err := parseDeck([]string{"nx=12", "iters=4"})
	if err != nil {
		t.Fatal(err)
	}
	if deck["nx"] != 12 || deck["iters"] != 4 {
		t.Fatalf("deck = %v", deck)
	}
	for _, bad := range []string{"nx", "nx=abc", "=5"} {
		if _, err := parseDeck([]string{bad}); err == nil && bad != "=5" {
			t.Errorf("parseDeck(%q) accepted", bad)
		}
	}
}

// TestPickMachine: the -machine flag's legacy short names resolve to the
// paper's presets.
func TestPickMachine(t *testing.T) {
	if m, err := machine.New("ibm"); err != nil || m.CPUsPerNode != 8 {
		t.Fatalf("ibm preset: %v %v", m, err)
	}
	if m, err := machine.New("ia32"); err != nil || m.Nodes != 16 {
		t.Fatalf("ia32 preset: %v %v", m, err)
	}
	if _, err := machine.New("cray"); err == nil {
		t.Error("unknown machine accepted")
	}
}

func TestLoadScriptFiles(t *testing.T) {
	dir := t.TempDir()
	sub := filepath.Join(dir, "subset.txt")
	if err := os.WriteFile(sub, []byte("fn_a\nfn_b\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	files, err := loadScriptFiles("start\ninsert-file " + sub + "\nif " + sub + "\nquit\n")
	if err != nil {
		t.Fatal(err)
	}
	if files[sub] != "fn_a\nfn_b\n" {
		t.Fatalf("files = %v", files)
	}
	if len(files) != 1 {
		t.Fatalf("duplicate reference loaded twice: %v", files)
	}
	if _, err := loadScriptFiles("insert-file /no/such/file.txt"); err == nil {
		t.Error("missing script file accepted")
	}
	// Plain commands reference no files.
	files, err = loadScriptFiles("start\nwait 2\ninsert fn_a\nquit")
	if err != nil || len(files) != 0 {
		t.Fatalf("unexpected files %v, err %v", files, err)
	}
}

// TestUnknownScriptCommandFailsRun pins the tool's exit contract: a script
// with an unknown command makes run() return an error (so main exits
// non-zero) with a message naming the bad command.
func TestUnknownScriptCommandFailsRun(t *testing.T) {
	dir := t.TempDir()
	script := filepath.Join(dir, "script.txt")
	if err := os.WriteFile(script, []byte("frobnicate the target\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	os.Args = []string{"dynprof", "-procs", "2",
		script, filepath.Join(dir, "out.txt"), filepath.Join(dir, "timings.txt"),
		"smg98", "nx=4", "iters=1"}
	err := run()
	if err == nil {
		t.Fatal("run() accepted a script with an unknown command")
	}
	if !goerrors.Is(err, core.ErrUnknownCommand) {
		t.Fatalf("run() error = %v, want core.ErrUnknownCommand", err)
	}
	if !strings.Contains(err.Error(), "frobnicate") {
		t.Fatalf("error %q does not name the bad command", err)
	}
}

// TestServeSmoke drives -serve end to end over a loopback connection: one
// session opens a resident job, instruments it, and shuts the server down.
func TestServeSmoke(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	errc := make(chan error, 1)
	go func() {
		errc <- serveJobs(ln, serve.Config{
			Machine:      machine.MustNew("ibm-power3"),
			MaxSessions:  4,
			MaxQueue:     -1,
			DefaultQuota: serve.Quota{MaxProbes: 8},
		}, 2003, 4, []string{"smg98"})
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(c)
	send := func(line string) string {
		t.Helper()
		fmt.Fprintln(c, line)
		if !sc.Scan() {
			t.Fatalf("connection closed awaiting reply to %q (read err %v)", line, sc.Err())
		}
		return sc.Text()
	}
	if got := send("open alice smg98"); !strings.HasPrefix(got, "ok open alice job smg98") {
		t.Fatalf("open reply %q", got)
	}
	if got := send("insert smg98_solve"); got != "ok insert 1 function(s)" {
		t.Fatalf("insert reply %q", got)
	}
	if got := send("wait 2"); !strings.HasPrefix(got, "ok wait") {
		t.Fatalf("wait reply %q", got)
	}
	if got := send("remove smg98_solve"); got != "ok remove 1 function(s)" {
		t.Fatalf("remove reply %q", got)
	}
	if got := send("shutdown"); got != "ok shutdown" {
		t.Fatalf("shutdown reply %q", got)
	}
	if err := <-errc; err != nil {
		t.Fatalf("serve: %v", err)
	}
}
