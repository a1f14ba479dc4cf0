package serve_test

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"

	"dynprof/internal/des"
	"dynprof/internal/machine"
	"dynprof/internal/serve"
)

// TestProtoBridge drives the line protocol over real connections: two
// sessions against a MaxSessions=1 server, so the second connection's open
// queues until the first quits — the bridge must keep serving the first
// connection while the second's handler is parked on the admission gate.
func TestProtoBridge(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	s := des.NewScheduler(29)
	sv := serve.New(s, serve.Config{
		Machine:     machine.MustNew("ibm-power3"),
		MaxSessions: 1,
		MaxQueue:    -1,
	})
	if _, err := sv.RegisterResident("smg", 4, nil); err != nil {
		t.Fatal(err)
	}
	b := serve.NewBridge(sv, ln)
	errc := make(chan error, 1)
	go func() { errc <- b.Serve() }()

	dial := func() (net.Conn, *bufio.Scanner) {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		return c, bufio.NewScanner(c)
	}
	send := func(c net.Conn, sc *bufio.Scanner, line string) string {
		t.Helper()
		fmt.Fprintln(c, line)
		if !sc.Scan() {
			t.Fatalf("connection closed awaiting reply to %q (read err %v)", line, sc.Err())
		}
		return sc.Text()
	}

	c1, r1 := dial()
	if got := send(c1, r1, "open alice smg"); !strings.HasPrefix(got, "ok open alice job smg") {
		t.Fatalf("open reply %q", got)
	}
	if got := send(c1, r1, "insert smg_solve smg_relax"); got != "ok insert 2 function(s)" {
		t.Fatalf("insert reply %q", got)
	}
	if got := send(c1, r1, "bogus"); !strings.HasPrefix(got, "err unknown command") {
		t.Fatalf("unknown-command reply %q", got)
	}
	if got := send(c1, r1, "start"); !strings.HasPrefix(got, "err \"start\" is not supported") {
		t.Fatalf("start reply %q", got)
	}

	// The second session must queue behind alice. Its open reply cannot
	// arrive until the slot frees, so send it without awaiting the reply,
	// then confirm from alice's connection that it queued.
	c2, r2 := dial()
	fmt.Fprintln(c2, "open bob smg")
	for {
		got := send(c1, r1, "stats")
		if strings.Contains(got, "queued=1") {
			break
		}
		if !strings.Contains(got, "queued=0") {
			t.Fatalf("stats reply %q", got)
		}
	}

	if got := send(c1, r1, "wait 1"); !strings.HasPrefix(got, "ok wait 1s") {
		t.Fatalf("wait reply %q", got)
	}
	if got := send(c1, r1, "quit"); got != "ok quit" {
		t.Fatalf("quit reply %q", got)
	}
	// The freed slot admits bob; his parked open now replies.
	if !r2.Scan() {
		t.Fatalf("no open reply for queued session (read err %v)", r2.Err())
	}
	if got := r2.Text(); !strings.HasPrefix(got, "ok open bob job smg") {
		t.Fatalf("queued open reply %q", got)
	}
	if got := send(c2, r2, "insert smg_exchange"); got != "ok insert 1 function(s)" {
		t.Fatalf("bob insert reply %q", got)
	}
	if got := send(c2, r2, "list"); got != "ok list smg_exchange" {
		t.Fatalf("bob list reply %q", got)
	}
	if got := send(c2, r2, "shutdown"); got != "ok shutdown" {
		t.Fatalf("shutdown reply %q", got)
	}
	if err := <-errc; err != nil {
		t.Fatalf("bridge: %v", err)
	}
	st := sv.Stats()
	if st.Admitted != 2 || st.Queued != 1 || st.Closed < 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestProtoSeqAndResume drives the leased-session protocol over real
// connections: request sequence numbers with duplicate suppression, a
// disconnect with a command in flight, and a reconnect that resumes the
// session by token and re-sends the possibly-lost command under its
// original sequence number — which must replay the cached reply, not
// execute twice.
func TestProtoSeqAndResume(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	s := des.NewScheduler(43)
	sv := serve.New(s, serve.Config{
		Machine: machine.MustNew("ibm-power3"),
		Lease:   30 * des.Second, // virtual grace window
	})
	if _, err := sv.RegisterResident("smg", 4, nil); err != nil {
		t.Fatal(err)
	}
	b := serve.NewBridge(sv, ln)
	errc := make(chan error, 1)
	go func() { errc <- b.Serve() }()

	dial := func() (net.Conn, *bufio.Scanner) {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		return c, bufio.NewScanner(c)
	}
	send := func(c net.Conn, sc *bufio.Scanner, line string) string {
		t.Helper()
		fmt.Fprintln(c, line)
		if !sc.Scan() {
			t.Fatalf("connection closed awaiting reply to %q (read err %v)", line, sc.Err())
		}
		return sc.Text()
	}

	c1, r1 := dial()
	open := send(c1, r1, "1 open alice smg")
	if !strings.HasPrefix(open, "ok open alice job smg token sess-") {
		t.Fatalf("leased open reply %q", open)
	}
	token := strings.Fields(open)[6]

	// Malformed sequenced lines: a bare number, seq zero, and a stale seq.
	if got := send(c1, r1, "42"); got != "err seq 42 without a command" {
		t.Fatalf("bare-seq reply %q", got)
	}
	if got := send(c1, r1, "0 list"); !strings.HasPrefix(got, "err bad seq 0") {
		t.Fatalf("zero-seq reply %q", got)
	}
	if got := send(c1, r1, "beat"); !strings.HasPrefix(got, "ok beat") {
		t.Fatalf("beat reply %q", got)
	}

	if got := send(c1, r1, "2 insert smg_relax"); got != "ok insert 1 function(s)" {
		t.Fatalf("insert reply %q", got)
	}
	// Duplicate of an executed seq replays the cached reply verbatim.
	if got := send(c1, r1, "2 insert smg_relax"); got != "ok insert 1 function(s)" {
		t.Fatalf("duplicate-seq reply %q", got)
	}
	if got := send(c1, r1, "1 list"); !strings.HasPrefix(got, "err stale seq 1 (last executed 2)") {
		t.Fatalf("stale-seq reply %q", got)
	}

	// The command whose reply the link drop will eat.
	if got := send(c1, r1, "5 insert smg_exchange"); got != "ok insert 1 function(s)" {
		t.Fatalf("insert reply %q", got)
	}
	// Disconnect with a command in flight: the handler still runs (its
	// reply write just fails) and the drop must suspend, not close.
	fmt.Fprintln(c1, "wait 1")
	c1.Close()

	c2, r2 := dial()
	if got := send(c2, r2, "beat"); !strings.HasPrefix(got, "err no session") {
		t.Fatalf("sessionless beat reply %q", got)
	}
	if got := send(c2, r2, "resume sess-999999"); !strings.HasPrefix(got, "err") {
		t.Fatalf("bogus resume reply %q", got)
	}
	// Resuming may race the old connection's EOF dispatch; retry until the
	// suspend lands (the bridge serialises, so this converges immediately
	// in practice).
	var resume string
	for {
		resume = send(c2, r2, "resume "+token)
		if !strings.Contains(resume, "not suspended") {
			break
		}
	}
	if !strings.HasPrefix(resume, "ok resume alice job smg probes ") {
		t.Fatalf("resume reply %q", resume)
	}
	// Re-send the possibly-lost command under its original seq: the session
	// carried its sequence state across the reconnect, so this replays the
	// cached reply without inserting a second time.
	if got := send(c2, r2, "5 insert smg_exchange"); got != "ok insert 1 function(s)" {
		t.Fatalf("replayed insert reply %q", got)
	}
	list := send(c2, r2, "6 list")
	if strings.Count(list, "smg_exchange") != 1 || strings.Count(list, "smg_relax") != 1 {
		t.Fatalf("list after resume %q", list)
	}
	if got := send(c2, r2, "7 shutdown"); got != "ok shutdown" {
		t.Fatalf("shutdown reply %q", got)
	}
	if err := <-errc; err != nil {
		t.Fatalf("bridge: %v", err)
	}
	st := sv.Stats()
	if st.Suspended != 1 || st.Resumed != 1 || st.Evicted != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestProtoOversizedLine: a request line over the reader's 64 KiB limit
// gets an err reply naming the limit, then the connection is dropped and
// its session closed; the bridge keeps serving other connections.
func TestProtoOversizedLine(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	s := des.NewScheduler(31)
	sv := serve.New(s, serve.Config{Machine: machine.MustNew("ibm-power3")})
	if _, err := sv.RegisterResident("smg", 4, nil); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- serve.NewBridge(sv, ln).Serve() }()

	dial := func() (net.Conn, *bufio.Scanner) {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		return c, bufio.NewScanner(c)
	}
	c1, r1 := dial()
	fmt.Fprintln(c1, "open alice smg")
	if !r1.Scan() || !strings.HasPrefix(r1.Text(), "ok open alice") {
		t.Fatalf("open reply %q (read err %v)", r1.Text(), r1.Err())
	}
	fmt.Fprintln(c1, "insert "+strings.Repeat("x", 70<<10))
	if !r1.Scan() {
		t.Fatalf("no reply to the oversized line (read err %v)", r1.Err())
	}
	if got := r1.Text(); got != "err line exceeds 65536 bytes" {
		t.Fatalf("oversized-line reply %q", got)
	}
	if r1.Scan() {
		t.Fatalf("connection still open after the oversized line: %q", r1.Text())
	}

	c2, r2 := dial()
	fmt.Fprintln(c2, "shutdown")
	if !r2.Scan() || r2.Text() != "ok shutdown" {
		t.Fatalf("shutdown reply %q (read err %v)", r2.Text(), r2.Err())
	}
	if err := <-errc; err != nil {
		t.Fatalf("bridge: %v", err)
	}
	if st := sv.Stats(); st.Closed != 1 {
		t.Errorf("stats = %+v, want alice's session closed by the drop", st)
	}
}
