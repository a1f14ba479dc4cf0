package main

import (
	"bufio"
	"fmt"
	"math/rand/v2"
	"net"
	"strings"
	"sync"
	"time"

	"dynprof/internal/des"
	"dynprof/internal/exp"
	"dynprof/internal/machine"
	"dynprof/internal/serve"
)

// The serve-tcp workload runs the `dynprof -serve` stack (serve.New,
// RegisterResident, NewBridge) on a loopback port and drives it with the
// traffic model of the tenants figure (internal/exp/tenants.go), sent as
// protocol commands over TCP by a closed loop of two connections. Each
// connection runs short sessions one after another, and each session is
// a connection of its own that ends with quit. Two connections keep two
// cores busy without queueing clients.
//
// A session is one of the tenants figure's: open, then insert/remove
// pairs of one hot function with a tenantThink wait after each of them;
// two sessions in each hundred are abusers that insert hot functions
// until the probe quota evicts them. The benchmark adds a list after each
// insert and remove to check the probe set, and a stats before every
// tenth quit.

var serveVerbs = []string{"open", "insert", "remove", "list", "wait", "stats", "quit"}

// serveConns is the closed loop's client count. The rest mirror the
// tenants figure's defaults: the job registry, the ranks per job, the
// insert/remove ops of a well-behaved session, the abuser share, the
// think time (exp's tenantThink) and the probe quota (exp's tenantQuota).
const (
	serveConns    = 2
	serveJobs     = exp.DefaultTenantJobs
	serveRanks    = exp.DefaultTenantProcs
	serveOps      = exp.DefaultTenantOps
	serveAbusePct = exp.DefaultTenantAbusePct
	serveThink    = "0.05"
	serveQuota    = 4
)

// serverDone is what the server goroutine reports once Serve returns.
type serverDone struct {
	err    error
	stats  serve.Stats
	events uint64
	calls  int64
	instr  int64
}

func serveRound(cfg *config, o *outcome, n int) error {
	root := cfg.tr.start("round", n, 0)
	defer cfg.tr.end(root)
	start := time.Now()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("loopback listen: %w", err)
	}
	done := make(chan serverDone, 1)
	go func() { done <- runServer(cfg, ln) }()

	clients := make([]*client, serveConns)
	for i := range clients {
		clients[i] = &client{cfg: cfg, id: i, round: n, parent: root, addr: ln.Addr().String(),
			rng: rand.New(rand.NewPCG(cfg.seed, uint64(n*serveConns+i)))}
	}
	// Set-up ends with the first session's open reply.
	first := clients[0].open(0)
	phase := time.Now()
	o.setup = append(o.setup, phase.Sub(start).Seconds())

	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for i := c.id; i < cfg.serveSessions; i += serveConns {
				if i == 0 {
					c.session(0, first)
				} else {
					c.session(i, c.open(i))
				}
			}
		}(c)
	}
	wg.Wait()
	o.opSecs += time.Since(phase).Seconds()

	// One more connection, opened after every session quit, stops the
	// server.
	o.check(shutdown(clients[0].addr))
	sd := <-done
	o.wall = append(o.wall, time.Since(start).Seconds())
	o.check(sd.err == nil)

	ops, virt := 0, 0.0
	for _, c := range clients {
		virt = max(virt, c.virt)
		o.attempted += c.attempted
		o.failed += c.failed
		for _, ms := range c.opMS {
			o.opMS.add(ms)
		}
		ops += len(c.opMS)
	}
	o.ops += ops - 1 // the first open belongs to set-up
	o.record("serve.admitted", float64(sd.stats.Admitted))
	o.record("serve.queued", float64(sd.stats.Queued))
	o.record("serve.evicted", float64(sd.stats.Evicted))
	o.record("serve.sim_s_per_op", virt/float64(ops))
	o.record("des.events", float64(sd.events))
	o.record("des.events_per_op", float64(sd.events)/float64(ops))
	o.record("sim_events_per_s", float64(sd.events)/o.wall[len(o.wall)-1])
	o.record("proc.calls", float64(sd.calls))
	o.record("proc.instr_cycles", float64(sd.instr))
	return nil
}

func jobName(i int) string { return fmt.Sprintf("job%02d", i) }

// runServer builds the server with its resident jobs and serves ln until
// a client sends shutdown. The admission cap is the tenants figure's
// (and `dynprof -serve`'s default) of 64, so the two connections never
// queue.
func runServer(cfg *config, ln net.Listener) serverDone {
	s := des.NewScheduler(cfg.seed)
	sv := serve.New(s, serve.Config{
		Machine:      machine.MustNew("ibm-power3"),
		MaxSessions:  64,
		MaxQueue:     -1,
		DefaultQuota: serve.Quota{MaxProbes: serveQuota},
	})
	for j := 0; j < serveJobs; j++ {
		if _, err := sv.RegisterResident(jobName(j), serveRanks, nil); err != nil {
			ln.Close()
			return serverDone{err: err}
		}
	}
	sd := serverDone{err: serve.NewBridge(sv, ln).Serve()}
	sd.stats, sd.events = sv.Stats(), s.Executed()
	for _, name := range sv.Jobs() {
		for _, p := range sv.Job(name).Guide().Processes() {
			for _, t := range p.Threads() {
				sd.calls += t.Calls()
				sd.instr += t.InstrCycles()
			}
		}
	}
	return sd
}

func shutdown(addr string) bool {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return false
	}
	defer c.Close()
	fmt.Fprintln(c, "shutdown")
	reply, err := bufio.NewReader(c).ReadString('\n')
	return err == nil && reply == "ok shutdown\n"
}

// client is one connection slot of the closed loop. It runs its sessions
// one after another, keeps a model of the open session's probe set and
// checks every reply against it.
type client struct {
	cfg           *config
	id            int
	round, parent int
	addr          string
	rng           *rand.Rand

	conn    net.Conn
	r       *bufio.Reader
	broken  bool
	replies int

	virt float64 // the simulated clock the last wait reply reported, in seconds

	attempted, failed int
	opMS              []float64
}

// do sends one command, waits for its reply and checks it with ok.
func (c *client) do(verb, line string, ok func(reply string) bool) (string, bool) {
	c.attempted++
	if c.broken {
		c.failed++
		return "", false
	}
	span := c.cfg.tr.start("serve."+verb, c.round, c.parent)
	t := time.Now()
	_, err := fmt.Fprintf(c.conn, "%s\n", line)
	var reply string
	if err == nil {
		reply, err = c.r.ReadString('\n')
	}
	c.opMS = append(c.opMS, float64(time.Since(t).Nanoseconds())/1e6)
	c.cfg.tr.end(span)
	if err != nil {
		c.broken = true
		c.failed++
		return "", false
	}
	reply = strings.TrimSuffix(reply, "\n")
	c.replies++
	if c.id == 0 && c.replies == c.cfg.faults.forgeReply {
		reply = "err forged by the self-test"
	}
	if !ok(reply) {
		c.failed++
		return reply, false
	}
	return reply, true
}

// open dials a new connection for session i and opens the session on
// the job the tenants figure gives it. It returns the job's hot
// functions, or nil if the open failed.
func (c *client) open(i int) []string {
	conn, err := net.Dial("tcp", c.addr)
	if err != nil {
		c.broken = true
		c.attempted++
		c.failed++
		return nil
	}
	c.conn, c.r, c.broken = conn, bufio.NewReader(conn), false
	user, job := fmt.Sprintf("u%05d", i), jobName(i%serveJobs)
	prefix := fmt.Sprintf("ok open %s job %s hot ", user, job)
	reply, ok := c.do("open", "open "+user+" "+job, hasPrefix(prefix))
	if !ok {
		return nil
	}
	return strings.Split(strings.TrimPrefix(reply, prefix), ",")
}

// session runs the rest of session i on the open connection and quits.
func (c *client) session(i int, hot []string) {
	defer func() {
		if c.conn != nil {
			c.conn.Close()
			c.conn = nil
		}
	}()
	if len(hot) > 0 {
		if i%100 < serveAbusePct {
			c.abuse(hot)
		} else {
			c.wellBehaved(hot)
		}
	}
	if i%10 == 9 {
		c.do("stats", "stats", hasPrefix("ok stats "))
	}
	c.do("quit", "quit", equals("ok quit"))
}

// wellBehaved sends the tenants figure's insert/remove pairs, each on a
// seeded hot function.
func (c *client) wellBehaved(hot []string) {
	for op := 0; op < serveOps; op += 2 {
		f := hot[c.rng.IntN(len(hot))]
		c.do("insert", "insert "+f, equals("ok insert 1 function(s)"))
		c.do("list", "list", equals("ok list "+f))
		c.think()
		c.do("remove", "remove "+f, equals("ok remove 1 function(s)"))
		c.do("list", "list", equals("ok list "))
		c.think()
	}
}

// abuse inserts the job's hot functions in order until the probe quota
// evicts the session, which must happen before they run out.
func (c *client) abuse(hot []string) {
	for _, f := range hot {
		reply, ok := c.do("insert", "insert "+f, func(r string) bool {
			return r == "ok insert 1 function(s)" ||
				strings.HasPrefix(r, "err serve: session evicted (probe quota exceeded")
		})
		if ok && reply != "ok insert 1 function(s)" {
			return
		}
		c.think()
	}
	c.attempted++ // the quota never evicted the session
	c.failed++
}

// think waits one tenantThink of simulated time.
func (c *client) think() {
	c.do("wait", "wait "+serveThink, func(r string) bool {
		// "ok wait 0.05s (vt now 1.234s)"
		_, now, found := strings.Cut(r, " (vt now ")
		_, err := fmt.Sscanf(now, "%gs)", &c.virt)
		return strings.HasPrefix(r, "ok wait "+serveThink+"s ") && found && err == nil
	})
}

func equals(want string) func(string) bool { return func(r string) bool { return r == want } }

func hasPrefix(p string) func(string) bool {
	return func(r string) bool { return strings.HasPrefix(r, p) }
}
