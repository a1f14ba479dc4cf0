package serve

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"

	"dynprof/internal/des"
)

// protoQuantum bounds how many simulation events the bridge executes
// between polls of the command channel, so a handler parked on an
// admission gate cannot starve commands (like the slot-freeing close)
// arriving on other connections.
const protoQuantum = 4096

// protoReq is one command line read from a connection, handed to the
// bridge loop by that connection's reader goroutine. eof marks the
// connection's end of stream instead of a command; an eof request's line,
// if set, is a final reply to send before the connection is dropped.
type protoReq struct {
	pc   *protoConn
	line string
	eof  bool
}

// seqState is one command stream's request-sequence state: the highest
// sequence number executed and the reply it produced. A retransmitted
// (duplicate) sequence number replays the cached reply without
// re-executing the command. The state lives on the Session once one is
// bound, so duplicate suppression survives a drop-and-resume onto a new
// connection; sessionless commands fall back to per-connection state.
type seqState struct {
	last  uint64
	reply string
}

// protoConn is the bridge's per-connection state. The reader goroutine
// only reads from c and sends on the bridge's request channel; everything
// else (including every write to c) happens on the bridge loop goroutine,
// one command at a time — the reader waits on ack before reading the next
// line, so a connection never has two commands in flight.
type protoConn struct {
	c   net.Conn
	w   *bufio.Writer
	ack chan struct{}
	sn  *Session
	seq seqState
	// rec, when non-nil, captures the next reply line for seq caching.
	rec *string
}

// Bridge serves the dynprof line protocol on top of a Server: one
// connection per tool session, commands in the command-script language,
// one "ok ..." or "err ..." reply line per command. The bridge owns the
// scheduler: handler Procs are spawned per command and the simulation is
// pumped in bounded quanta between channel polls, so concurrent sessions
// on separate connections advance the same virtual timeline.
type Bridge struct {
	s  *des.Scheduler
	sv *Server
	ln net.Listener

	reqs      chan protoReq
	spawned   int
	completed int
	quit      bool
	conns     map[*protoConn]bool
}

// NewBridge wraps sv's scheduler and ln in a protocol bridge; call Serve
// to run it.
func NewBridge(sv *Server, ln net.Listener) *Bridge {
	return &Bridge{
		s:     sv.Scheduler(),
		sv:    sv,
		ln:    ln,
		reqs:  make(chan protoReq, 16),
		conns: make(map[*protoConn]bool),
	}
}

// Serve accepts connections and processes commands until a client issues
// shutdown, then runs the resident jobs to completion and returns the
// simulation's verdict. It must be called from the goroutine that owns
// the scheduler.
func (b *Bridge) Serve() error {
	go b.accept()
	for {
		if b.quit && b.spawned == b.completed {
			break
		}
		// Ingest every immediately-available command; block only when the
		// simulation cannot progress without external input.
		ingested := b.ingest(b.spawned == b.completed)
		start, base := b.s.Executed(), b.completed
		if err := b.s.DrainUntil(func() bool {
			return b.completed > base || b.s.Executed()-start >= protoQuantum
		}); err != nil {
			return err
		}
		if !ingested && b.s.Executed() == start && b.completed == base && !b.quit {
			// Nothing ran and nothing arrived: handlers (if any) are parked
			// waiting on other connections. Block for the next command.
			req, ok := <-b.reqs
			if !ok {
				break
			}
			b.dispatch(req)
		}
	}
	b.shutdown()
	if err := b.s.Drain(); err != nil {
		return err
	}
	return b.s.Finish()
}

// ingest dispatches queued commands without blocking; when block is set
// and the bridge is idle, it waits for the first command.
func (b *Bridge) ingest(block bool) bool {
	ingested := false
	if block && !b.quit {
		req, ok := <-b.reqs
		if !ok {
			return false
		}
		b.dispatch(req)
		ingested = true
	}
	for {
		select {
		case req := <-b.reqs:
			b.dispatch(req)
			ingested = true
		default:
			return ingested
		}
	}
}

// accept runs the listener, one reader goroutine per connection.
func (b *Bridge) accept() {
	for {
		c, err := b.ln.Accept()
		if err != nil {
			return
		}
		pc := &protoConn{c: c, w: bufio.NewWriter(c), ack: make(chan struct{}, 1)}
		go b.reader(pc)
	}
}

// reader parses one connection's command stream. It serialises the
// connection: after sending a command it waits for the handler's ack
// before reading the next line.
func (b *Bridge) reader(pc *protoConn) {
	sc := bufio.NewScanner(pc.c)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		b.reqs <- protoReq{pc: pc, line: line}
		<-pc.ack
	}
	end := protoReq{pc: pc, eof: true}
	if errors.Is(sc.Err(), bufio.ErrTooLong) {
		end.line = fmt.Sprintf("err line exceeds %d bytes", bufio.MaxScanTokenSize)
		// Discard the rest of the line (for at most a second) so the close
		// that follows the reply is an orderly one: closing with unread
		// input resets the connection, which can destroy the reply in
		// flight. A deadline that cannot be set means the connection is
		// already unusable, and the first read below fails at once.
		_ = pc.c.SetReadDeadline(time.Now().Add(time.Second))
		r := bufio.NewReader(pc.c)
		for {
			if _, err := r.ReadSlice('\n'); err != bufio.ErrBufferFull {
				break
			}
		}
	}
	b.reqs <- end
}

// dispatch spawns the handler Proc for one command (or connection EOF).
func (b *Bridge) dispatch(req protoReq) {
	pc := req.pc
	b.conns[pc] = true
	b.spawned++
	b.s.Spawn("proto", func(p *des.Proc) {
		defer func() { b.completed++ }()
		if req.eof {
			if req.line != "" {
				b.replyRaw(pc, req.line)
			}
			b.drop(p, pc)
			return
		}
		b.handle(p, pc, req.line)
		pc.ack <- struct{}{}
	})
}

// drop handles a departed connection. With leasing enabled the session is
// suspended — the client gets a grace window to reconnect and resume by
// token — otherwise (or if the session is already gone) it is closed, the
// pre-lease behaviour.
func (b *Bridge) drop(p *des.Proc, pc *protoConn) {
	if pc.sn != nil {
		if b.sv.cfg.Lease > 0 {
			b.sv.SuspendSession(pc.sn)
		} else {
			pc.sn.Close(p)
		}
		pc.sn = nil
	}
	pc.c.Close()
	delete(b.conns, pc)
}

// shutdown tears the host side down after the last handler finishes: no
// new connections, every live connection closed, and a drainer to unblock
// readers still sending on the request channel.
func (b *Bridge) shutdown() {
	b.ln.Close()
	for pc := range b.conns {
		pc.c.Close()
	}
	go func() {
		for req := range b.reqs {
			if !req.eof {
				req.pc.ack <- struct{}{}
			}
		}
	}()
}

func (b *Bridge) reply(pc *protoConn, format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	if pc.rec != nil {
		*pc.rec = line
	}
	fmt.Fprintf(pc.w, "%s\n", line)
	pc.w.Flush()
}

// replyRaw writes a pre-formatted reply line without seq capture (used to
// replay a cached reply for a duplicate sequence number).
func (b *Bridge) replyRaw(pc *protoConn, line string) {
	fmt.Fprintf(pc.w, "%s\n", line)
	pc.w.Flush()
}

// seqFor picks the sequence state a connection's commands check against:
// the bound session's (survives reconnects) or the connection's own.
func (pc *protoConn) seqFor() *seqState {
	if pc.sn != nil {
		return &pc.sn.seq
	}
	return &pc.seq
}

// handle executes one command line for one connection, inside handler
// Proc p, and writes exactly one reply line.
//
// A leading all-digit token is a request sequence number (commands never
// start with a digit): a client unsure whether its last request survived a
// link drop re-sends it under the same number after resuming, and the
// bridge replays the cached reply instead of executing the command twice.
// Sequence numbers must be >= 1 and ascending; a number below the last
// executed one is rejected as stale.
func (b *Bridge) handle(p *des.Proc, pc *protoConn, line string) {
	fields := strings.Fields(line)
	var seq uint64
	if n, err := strconv.ParseUint(fields[0], 10, 64); err == nil {
		if n == 0 {
			b.reply(pc, "err bad seq 0 (sequence numbers start at 1)")
			return
		}
		seq = n
		fields = fields[1:]
		if len(fields) == 0 {
			b.reply(pc, "err seq %d without a command", seq)
			return
		}
		st := pc.seqFor()
		if seq == st.last {
			b.replyRaw(pc, st.reply)
			return
		}
		if seq < st.last {
			b.reply(pc, "err stale seq %d (last executed %d)", seq, st.last)
			return
		}
		var captured string
		pc.rec = &captured
		defer func() {
			pc.rec = nil
			// The command may have bound or switched the session (open,
			// resume): record against the stream the client will keep using.
			st := pc.seqFor()
			st.last, st.reply = seq, captured
		}()
	}
	cmd := fields[0]
	needSession := func() bool {
		if pc.sn == nil {
			b.reply(pc, "err no session (use: open <user> <job>)")
			return false
		}
		return true
	}
	opErr := func(err error) {
		b.reply(pc, "err %v", err)
	}
	switch cmd {
	case "open":
		if pc.sn != nil {
			b.reply(pc, "err session already open for %s", pc.sn.User())
			return
		}
		if len(fields) != 3 {
			b.reply(pc, "err usage: open <user> <job>")
			return
		}
		sn, err := b.sv.Open(p, fields[1], fields[2], nil)
		if err != nil {
			opErr(err)
			return
		}
		pc.sn = sn
		if b.sv.cfg.Lease > 0 {
			b.reply(pc, "ok open %s job %s token %s hot %s", sn.User(), sn.Job().Name(),
				sn.Token(), strings.Join(sn.Job().Hot(), ","))
			return
		}
		b.reply(pc, "ok open %s job %s hot %s", sn.User(), sn.Job().Name(), strings.Join(sn.Job().Hot(), ","))
	case "resume":
		if pc.sn != nil {
			b.reply(pc, "err session already open for %s", pc.sn.User())
			return
		}
		if len(fields) != 2 {
			b.reply(pc, "err usage: resume <token>")
			return
		}
		if b.sv.cfg.Lease <= 0 {
			b.reply(pc, "err resume requires leased sessions (server started without a lease)")
			return
		}
		sn, err := b.sv.ResumeSession(fields[1])
		if err != nil {
			opErr(err)
			return
		}
		pc.sn = sn
		b.reply(pc, "ok resume %s job %s probes %s", sn.User(), sn.Job().Name(),
			strings.Join(sn.Instrumented(), ","))
	case "beat", "b":
		if !needSession() {
			return
		}
		if err := pc.sn.Heartbeat(p); err != nil {
			opErr(err)
			return
		}
		b.reply(pc, "ok beat (lease until vt %.3fs)", pc.sn.LeaseUntil().Seconds())
	case "insert", "i":
		if !needSession() {
			return
		}
		if len(fields) < 2 {
			b.reply(pc, "err usage: insert <function> ...")
			return
		}
		if err := pc.sn.Insert(p, fields[1:]...); err != nil {
			opErr(err)
			return
		}
		b.reply(pc, "ok insert %d function(s)", len(fields)-1)
	case "remove", "r":
		if !needSession() {
			return
		}
		if len(fields) < 2 {
			b.reply(pc, "err usage: remove <function> ...")
			return
		}
		if err := pc.sn.Remove(p, fields[1:]...); err != nil {
			opErr(err)
			return
		}
		b.reply(pc, "ok remove %d function(s)", len(fields)-1)
	case "list", "l":
		if !needSession() {
			return
		}
		b.reply(pc, "ok list %s", strings.Join(pc.sn.Instrumented(), ","))
	case "wait", "w":
		if len(fields) != 2 {
			b.reply(pc, "err usage: wait <seconds>")
			return
		}
		secs, err := strconv.ParseFloat(fields[1], 64)
		if err != nil || secs < 0 {
			b.reply(pc, "err bad duration %q", fields[1])
			return
		}
		p.Advance(des.Time(secs * float64(des.Second)))
		b.reply(pc, "ok wait %gs (vt now %.3fs)", secs, p.Now().Seconds())
	case "jobs":
		b.reply(pc, "ok jobs %s", strings.Join(b.sv.Jobs(), ","))
	case "stats":
		st := b.sv.Stats()
		b.reply(pc, "ok stats admitted=%d queued=%d rejected=%d evicted=%d closed=%d",
			st.Admitted, st.Queued, st.Rejected, st.Evicted, st.Closed)
	case "quit", "q":
		if pc.sn != nil {
			pc.sn.Close(p)
			pc.sn = nil
		}
		b.reply(pc, "ok quit")
		pc.c.Close()
	case "shutdown":
		b.quit = true
		b.sv.Shutdown()
		b.reply(pc, "ok shutdown")
	case "help", "h":
		b.reply(pc, "ok commands: open <user> <job> | resume <token> | insert <fn>... | remove <fn>... | list | beat | wait <s> | jobs | stats | quit | shutdown (prefix any command with a sequence number for duplicate suppression)")
	case "insert-file", "if", "remove-file", "rf", "start":
		b.reply(pc, "err %q is not supported in serve mode (sessions attach to resident jobs)", cmd)
	default:
		b.reply(pc, "err unknown command %q (try help)", cmd)
	}
}
