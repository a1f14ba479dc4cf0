package exp

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"dynprof/internal/des"
	"dynprof/internal/fault"
	"dynprof/internal/machine"
	"dynprof/internal/vt"
)

// This file implements the "scale" figure: weak-scaling sweeps of
// instrumented communication skeletons at rank counts (1k/4k/16k) far
// beyond what the full per-rank MPI/OpenMP machinery is sized for. Each
// cell runs on a sharded DES (des.Cluster): the machine's nodes are
// partitioned over shards (machine.ShardMap), ranks live on their node's
// shard, intra-node traffic stays shard-local and inter-node messages
// cross shards with the wire latency as conservative lookahead. Trace
// collection uses one vt.Collector per shard with an optional streaming
// spill sink, so resident trace memory stays bounded at any rank count.
//
// The skeletons are deliberately RNG-free and blocking-count based: every
// virtual timestamp is a pure function of the machine model, so a cell's
// Elapsed is identical for ANY shard count, and the full result is
// bit-for-bit deterministic for a fixed (seed, shard count) pair at any
// host parallelism.

// Defaults for ScaleSpec's zero fields.
const (
	// DefaultScaleShards is the shard count used when none is requested.
	DefaultScaleShards = 8
	// DefaultScaleIters is the number of solver iterations per cell.
	DefaultScaleIters = 4
	// DefaultSpillThreshold is the per-shard resident event count that
	// triggers a spill when a spill directory is configured.
	DefaultSpillThreshold = 16384
)

// scaleFlushThreshold bounds each rank's in-library event buffer: small
// enough that mid-run flushes feed the shard collectors continuously
// instead of ballooning at termination.
const scaleFlushThreshold = 8

// scaleApps lists the applications with scale skeletons, in presentation
// order.
var scaleApps = []string{"smg98", "sweep3d"}

// scaleRanks is the rank sweep of the scale figure.
var scaleRanks = []int{1024, 4096, 16384}

// ScaleSpec describes one scale cell: a weak-scaling skeleton run of an
// application at a rank count on a sharded DES.
type ScaleSpec struct {
	// App selects the skeleton: "smg98" (halo exchange + allreduce) or
	// "sweep3d" (pipelined wavefront).
	App string
	// Ranks is the number of simulated MPI ranks.
	Ranks int
	// Shards is the DES shard count (0 = DefaultScaleShards). The shard
	// count is part of the spec's identity: fixed (seed, shards) runs are
	// bit-identical, and Elapsed is additionally shard-count-invariant.
	Shards int
	// Iters is the number of solver iterations (0 = DefaultScaleIters).
	Iters int
	// Machine is the simulated platform. Nil selects the IBM Power3
	// preset grown to hold Ranks (the preset's 144 nodes cap at 1152
	// ranks; scale sweeps need more nodes, not a different machine).
	Machine *machine.Config
	// Seed fixes the simulation seed (used literally; 0 is valid).
	Seed uint64

	// Harness configuration — never part of the spec key, because none of
	// it changes the simulated result.

	// SpillDir, when non-empty, streams each shard collector's arena to a
	// spill file under this directory once it exceeds SpillThreshold
	// resident events.
	SpillDir string
	// SpillThreshold overrides DefaultSpillThreshold (events per shard).
	SpillThreshold int
	// HostParallelism bounds the host worker goroutines executing shards
	// (0 = GOMAXPROCS). Results are identical for any value.
	HostParallelism int
}

// norm fills in the documented defaults.
func (s ScaleSpec) norm() ScaleSpec {
	if s.Shards == 0 {
		s.Shards = DefaultScaleShards
	}
	if s.Iters == 0 {
		s.Iters = DefaultScaleIters
	}
	if s.Machine == nil {
		s.Machine = scaleMachine(s.Ranks)
	}
	if s.SpillThreshold == 0 {
		s.SpillThreshold = DefaultSpillThreshold
	}
	if s.HostParallelism == 0 {
		s.HostParallelism = runtime.GOMAXPROCS(0)
	}
	return s
}

// scaleMachine grows the IBM Power3 preset to hold ranks ranks, keeping
// every per-node and per-link parameter untouched.
func scaleMachine(ranks int) *machine.Config {
	base := machine.MustNew("ibm-power3")
	nodes := (ranks + base.CPUsPerNode - 1) / base.CPUsPerNode
	if nodes < base.Nodes {
		return base
	}
	return machine.MustNew("ibm-power3",
		machine.WithNodes(nodes),
		machine.WithName(fmt.Sprintf("%s grown to %d nodes", base.Name, nodes)))
}

// Key canonicalises the spec (defaults resolved first; spill and host
// parallelism excluded — they never change the simulated result).
func (s ScaleSpec) Key() string {
	n := s.norm()
	return fmt.Sprintf("scale|%s|ranks=%d|shards=%d|iters=%d|%s|seed=%d%s",
		n.App, n.Ranks, n.Shards, n.Iters, n.Machine.Name, n.Seed, faultKey(n.Machine))
}

func (s ScaleSpec) runCell(bud des.Budget) (cellResult, error) { return runScaleCell(s, bud) }

// ScaleResult is one measured scale cell. Every field is deterministic
// for a fixed (seed, shard count); Elapsed, TraceEvents and TraceBytes
// are additionally identical across shard counts.
type ScaleResult struct {
	App    string
	Ranks  int
	Shards int
	// Elapsed is the virtual completion time of the slowest rank.
	Elapsed des.Time
	// Events is the total DES event count across all shards.
	Events uint64
	// TraceEvents and TraceBytes measure the collected trace volume.
	TraceEvents int
	TraceBytes  int
	// SpilledEvents counts trace events streamed to spill files (0
	// without a spill directory).
	SpilledEvents int
}

func (r ScaleResult) elapsed() des.Time     { return r.Elapsed }
func (r ScaleResult) events() uint64        { return r.Events }
func (r ScaleResult) faults() []fault.Event { return nil }

// RunScale executes one scale cell without a budget.
func RunScale(spec ScaleSpec) (ScaleResult, error) { return runScaleCell(spec, des.Budget{}) }

// scaleThread implements image.ExecCtx for a skeleton rank: one logical
// thread whose instrumentation charges advance its Proc's virtual clock
// directly.
type scaleThread struct {
	p    *des.Proc
	mach *machine.Config
}

func (t *scaleThread) ThreadID() int { return 0 }
func (t *scaleThread) Now() des.Time { return t.p.Now() }
func (t *scaleThread) Charge(cycles int64) {
	if cycles > 0 {
		t.p.Advance(t.mach.CyclesToTime(cycles))
	}
}

// Message channels of the skeletons. Each rank owns one mailbox per
// channel, so differently-purposed messages never mix.
const (
	chanHalo = iota // neighbour exchange (smg98) / wavefront (sweep3d)
	chanTree        // reduction tree traffic
	numChans
)

// scaleNet prices and routes skeleton messages over the shard map. All
// methods are called from rank Proc context on the sender's shard; the
// delivery callback runs on the destination rank's shard.
type scaleNet struct {
	mach   *machine.Config
	place  *machine.Placement
	smap   *machine.ShardMap
	scheds []*des.Scheduler         // per rank: its shard's scheduler
	boxes  [numChans][]*des.Mailbox // per channel, per rank
	ranks  int
}

// send models an eager message: the sender pays its CPU overhead, the
// wire carries the payload for the placement-priced transfer time, and
// the value lands in the destination rank's channel mailbox. Inter-node
// transfers take at least the wire latency — exactly the cluster's
// lookahead — so cross-shard sends always satisfy the conservative
// contract.
func (n *scaleNet) send(p *des.Proc, src, dst, ch int, payload int64, bytes int) {
	p.Advance(n.mach.Net.SendOverhead)
	transfer := n.mach.TransferTime(n.place.NodeOf(src), n.place.NodeOf(dst), bytes)
	box := n.boxes[ch][dst]
	n.scheds[src].Cast(n.smap.ShardOfRank(n.place, dst), transfer, func() { box.Put(payload) })
}

// recv blocks rank dst until a message arrives on channel ch, then pays
// the receiver-side CPU overhead.
func (n *scaleNet) recv(p *des.Proc, dst, ch int) int64 {
	v := p.Recv(n.boxes[ch][dst]).(int64)
	p.Advance(n.mach.Net.RecvOverhead)
	return v
}

// allreduce combines v across all ranks with a binary reduce-broadcast
// tree. Blocking is count-based and the combine is commutative, so the
// result and every timestamp are independent of message arrival order.
func (n *scaleNet) allreduce(p *des.Proc, r int, v int64) int64 {
	left, right := 2*r+1, 2*r+2
	sum := v
	if left < n.ranks {
		sum += n.recv(p, r, chanTree)
	}
	if right < n.ranks {
		sum += n.recv(p, r, chanTree)
	}
	if r > 0 {
		n.send(p, r, (r-1)/2, chanTree, sum, 8)
		sum = n.recv(p, r, chanTree)
	}
	if left < n.ranks {
		n.send(p, r, left, chanTree, sum, 8)
	}
	if right < n.ranks {
		n.send(p, r, right, chanTree, sum, 8)
	}
	return sum
}

// Skeleton cost model, in processor cycles per iteration.
const (
	smgResidualCycles = 1_200_000 // one smoothing/residual pass
	sweepWorkCycles   = 900_000   // one wavefront block solve
	haloBytes         = 4096      // boundary plane exchanged per neighbour
	waveBytes         = 2048      // downstream face of a wavefront block
)

// smg98ScaleMain is the Smg98 skeleton: per iteration a residual pass,
// a halo exchange with the ring neighbours and a global allreduce (the
// multigrid solver's convergence check).
func smg98ScaleMain(p *des.Proc, net *scaleNet, vc *vt.Ctx, ec *scaleThread, r, iters int) {
	vc.Initialize(ec)
	idResidual := vc.FuncDef("smg_Residual")
	idHalo := vc.FuncDef("smg_HaloExchange")
	n := net.ranks
	for it := 0; it < iters; it++ {
		vc.Begin(ec, idResidual)
		ec.Charge(smgResidualCycles)
		vc.End(ec, idResidual)

		vc.Begin(ec, idHalo)
		expect := 0
		if r > 0 {
			net.send(p, r, r-1, chanHalo, int64(it), haloBytes)
			expect++
		}
		if r < n-1 {
			net.send(p, r, r+1, chanHalo, int64(it), haloBytes)
			expect++
		}
		for i := 0; i < expect; i++ {
			net.recv(p, r, chanHalo)
		}
		vc.End(ec, idHalo)

		net.allreduce(p, r, int64(r+it))
	}
	vc.Flush()
}

// sweep3dScaleMain is the Sweep3d skeleton: per iteration a forward and a
// backward pipelined wavefront along the rank line, the paper kernel's
// characteristic dependence chain.
func sweep3dScaleMain(p *des.Proc, net *scaleNet, vc *vt.Ctx, ec *scaleThread, r, iters int) {
	vc.Initialize(ec)
	idSweep := vc.FuncDef("sweep_Octant")
	n := net.ranks
	for it := 0; it < iters; it++ {
		// Forward wavefront: rank r waits on r-1.
		if r > 0 {
			net.recv(p, r, chanHalo)
		}
		vc.Begin(ec, idSweep)
		ec.Charge(sweepWorkCycles)
		vc.End(ec, idSweep)
		if r < n-1 {
			net.send(p, r, r+1, chanHalo, int64(it), waveBytes)
		}
		// Backward wavefront: rank r waits on r+1.
		if r < n-1 {
			net.recv(p, r, chanHalo)
		}
		vc.Begin(ec, idSweep)
		ec.Charge(sweepWorkCycles)
		vc.End(ec, idSweep)
		if r > 0 {
			net.send(p, r, r-1, chanHalo, int64(it), waveBytes)
		}
	}
	vc.Flush()
}

// runScaleCell executes one scale cell: place the ranks, shard the
// machine, spawn one Proc per rank on its node's shard and drive the
// cluster to completion.
func runScaleCell(spec ScaleSpec, bud des.Budget) (ScaleResult, error) {
	spec = spec.norm()
	res := ScaleResult{App: spec.App, Ranks: spec.Ranks}
	var main func(p *des.Proc, net *scaleNet, vc *vt.Ctx, ec *scaleThread, r, iters int)
	switch spec.App {
	case "smg98":
		main = smg98ScaleMain
	case "sweep3d":
		main = sweep3dScaleMain
	default:
		return res, fmt.Errorf("exp: no scale skeleton for %q (have %v)", spec.App, scaleApps)
	}
	if spec.Ranks <= 0 {
		return res, fmt.Errorf("exp: scale cell needs at least one rank, got %d", spec.Ranks)
	}
	place, err := machine.Pack(spec.Machine, spec.Ranks)
	if err != nil {
		return res, err
	}
	smap, err := machine.NewShardMap(spec.Machine, spec.Shards)
	if err != nil {
		return res, err
	}
	res.Shards = smap.Shards()

	cluster := des.NewCluster(smap.Shards(), smap.Lookahead(), spec.Seed,
		des.WithClusterBudget(bud), des.WithHostParallelism(spec.HostParallelism))

	// One trace collector per shard: appends stay shard-local (race-free
	// and deterministic), and each arena spills independently.
	cols := make([]*vt.Collector, smap.Shards())
	defer func() {
		for _, col := range cols {
			if col != nil {
				col.Release()
			}
		}
	}()
	for i := range cols {
		cols[i] = vt.NewCollector()
		if spec.SpillDir != "" {
			if err := os.MkdirAll(spec.SpillDir, 0o755); err != nil {
				return res, fmt.Errorf("exp: scale spill dir: %w", err)
			}
			path := filepath.Join(spec.SpillDir, fmt.Sprintf("scale_%s_r%d_s%d_i%d_seed%d.shard%d.spill",
				spec.App, spec.Ranks, spec.Shards, spec.Iters, spec.Seed, i))
			if err := cols[i].SpillTo(path, spec.SpillThreshold); err != nil {
				return res, err
			}
		}
	}

	net := &scaleNet{
		mach:   spec.Machine,
		place:  place,
		smap:   smap,
		scheds: make([]*des.Scheduler, spec.Ranks),
		ranks:  spec.Ranks,
	}
	for ch := 0; ch < numChans; ch++ {
		net.boxes[ch] = make([]*des.Mailbox, spec.Ranks)
	}
	finishes := make([]des.Time, spec.Ranks)
	for r := 0; r < spec.Ranks; r++ {
		r := r
		shard := smap.ShardOfRank(place, r)
		s := cluster.Shard(shard)
		net.scheds[r] = s
		for ch := 0; ch < numChans; ch++ {
			net.boxes[ch][r] = des.NewMailbox(s, fmt.Sprintf("r%d.c%d", r, ch))
		}
		vc := vt.NewCtx(vt.Options{
			Rank:           r,
			Collector:      cols[shard],
			Node:           place.NodeOf(r),
			FlushThreshold: scaleFlushThreshold,
		})
		s.Spawn(fmt.Sprintf("rank%d", r), func(p *des.Proc) {
			ec := &scaleThread{p: p, mach: spec.Machine}
			main(p, net, vc, ec, r, spec.Iters)
			finishes[r] = p.Now()
		})
	}

	if err := runScheduler(cluster); err != nil {
		return res, err
	}
	for _, t := range finishes {
		if t > res.Elapsed {
			res.Elapsed = t
		}
	}
	res.Events = cluster.Executed()
	for _, col := range cols {
		if err := col.SpillErr(); err != nil {
			return res, err
		}
		res.TraceEvents += col.Len()
		res.TraceBytes += col.Bytes()
		res.SpilledEvents += col.Spilled()
	}
	return res, nil
}

// planScale enumerates the scale figure: the virtual completion time of
// each skeleton across the rank sweep on the sharded DES.
func planScale(opts Options) (*figurePlan, error) {
	plan := &figurePlan{fig: &Figure{
		Title:  "Instrumented kernels at scale (sharded DES)",
		XLabel: "Ranks",
		YLabel: "Time (s)",
	}}
	for si, app := range scaleApps {
		plan.fig.Series = append(plan.fig.Series, Series{Label: app})
		for _, ranks := range opts.cap(scaleRanks) {
			plan.cells = append(plan.cells, planCell{
				series: si,
				cpus:   ranks,
				desc:   fmt.Sprintf("scale %s/%d ranks", app, ranks),
				spec: ScaleSpec{
					App: app, Ranks: ranks,
					Shards: opts.Shards, Machine: opts.Machine, Seed: opts.seed(),
					SpillDir: opts.SpillDir, SpillThreshold: opts.SpillThreshold,
				},
				value: func(v any) float64 { return v.(ScaleResult).Elapsed.Seconds() },
			})
		}
	}
	return plan, nil
}
