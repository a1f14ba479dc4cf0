package exp

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"dynprof/internal/des"
	"dynprof/internal/fault"
)

// planCell is one schedulable cell of a figure: the spec to execute and
// where its extracted value lands in the assembled figure.
type planCell struct {
	series int    // index into fig.Series
	cpus   int    // x coordinate of the produced point
	desc   string // human-readable cell label for error wrapping
	spec   cellSpec
	value  func(any) float64 // extracts the plotted value from the result
}

// figurePlan is a figure skeleton (labels, empty series; planFor sets
// the registered ID) plus its cell work-list in presentation order.
type figurePlan struct {
	fig   *Figure
	cells []planCell
}

// FigureSet says which sweeps a registered figure belongs to.
type FigureSet int

const (
	// PaperSweep figures are the paper's Figures 7-9: cmd/experiments
	// -all runs them, and FigureIDs() lists them.
	PaperSweep FigureSet = iota
	// Golden figures extend the paper's evaluation (Section 5.1, fault
	// injection): FigureIDs() and its byte goldens cover them, -all does
	// not.
	Golden
	// OnDemand figures run only when asked for by ID, so adding one
	// leaves -all and the goldens byte-identical.
	OnDemand
)

// FigureDef is one entry of the figure registry.
type FigureDef struct {
	ID string
	// Description is the one-line summary cmd/experiments uses as the
	// figure's flag usage.
	Description string
	Set         FigureSet
	plan        func(Options) (*figurePlan, error)
}

// figureRegistry lists every figure the Runner can build, in
// presentation order. A new figure is one row here plus its own file
// (spec, cell, result and plan).
var figureRegistry = []FigureDef{
	{"fig7a", "Figure 7(a): Smg98 execution times", PaperSweep, func(o Options) (*figurePlan, error) { return planFig7("smg98", o) }},
	{"fig7b", "Figure 7(b): Sppm execution times", PaperSweep, func(o Options) (*figurePlan, error) { return planFig7("sppm", o) }},
	{"fig7c", "Figure 7(c): Sweep3d execution times", PaperSweep, func(o Options) (*figurePlan, error) { return planFig7("sweep3d", o) }},
	{"fig7d", "Figure 7(d): Umt98 execution times", PaperSweep, func(o Options) (*figurePlan, error) { return planFig7("umt98", o) }},
	{"fig8a", "Figure 8(a): VT_confsync on IBM", PaperSweep, planFig8a},
	{"fig8b", "Figure 8(b): statistics write on IBM", PaperSweep, planFig8b},
	{"fig8c", "Figure 8(c): VT_confsync on IA32", PaperSweep, planFig8c},
	{"fig9", "Figure 9: time to create and instrument", PaperSweep, planFig9},
	{"hybrid", "Section 5.1 hybrid: dynamically inserted confsync points", Golden, planHybrid},
	{"faults", "fault-injection sweep: run and confsync cost vs fault intensity", Golden, planFaults},
	{"scale", "scale sweep: instrumented kernels at 1k/4k/16k ranks on the sharded DES", OnDemand, planScale},
	{"tenants", "tenants sweep: control-op latency percentiles at 100/1k/10k concurrent sessions", OnDemand, planTenants},
	{"adapt", "adapt sweep: achieved overhead and retained events vs perturbation budget on all four kernels", OnDemand, planAdapt},
	{"recover", "recover sweep: reconvergence latency, lost-event fraction, and co-tenant impact vs daemon MTBF", OnDemand, planRecover},
	{"compact", "compact sweep: trace bytes per event at Full instrumentation, verbatim vs redundancy-suppressed", OnDemand, planCompact},
}

// Registry returns every registered figure in presentation order.
func Registry() []FigureDef {
	return append([]FigureDef(nil), figureRegistry...)
}

// FigureIDs lists the paper-sweep and golden figures in presentation
// order: the set the byte goldens cover.
func FigureIDs() []string {
	var ids []string
	for _, d := range figureRegistry {
		if d.Set != OnDemand {
			ids = append(ids, d.ID)
		}
	}
	return ids
}

// planFor builds the cell work-list of one registered figure.
func planFor(id string, opts Options) (*figurePlan, error) {
	for _, d := range figureRegistry {
		if d.ID == id {
			p, err := d.plan(opts)
			if err != nil {
				return nil, err
			}
			p.fig.ID = id
			return p, nil
		}
	}
	ids := make([]string, len(figureRegistry))
	for i, d := range figureRegistry {
		ids[i] = d.ID
	}
	return nil, fmt.Errorf("exp: unknown figure %q (have %v)", id, ids)
}

// Metrics is a snapshot of a Runner's cumulative counters.
type Metrics struct {
	// Cells is the number of cells requested (including cache hits).
	Cells int
	// Runs is the number of specs actually executed.
	Runs int
	// CacheHits is the number of cells served from the in-memory memo
	// cache.
	CacheHits int
	// StoreHits is the number of cells served from the persistent result
	// store (Options.Store) without re-execution.
	StoreHits int
	// Failures is the number of executed specs that exhausted harness
	// supervision (they assemble as NaN holes with CellFailure records).
	Failures int
	// Retries is the number of re-attempts after retryable failures
	// (livelock, timeout) across all executed specs.
	Retries int
	// Wall is the host wall-clock time spent inside Figures/Run calls.
	Wall time.Duration
	// Busy is the summed per-worker host time executing cells.
	Busy time.Duration
	// Virtual is the total simulated time covered by executed cells.
	Virtual des.Time
	// Workers is the pool size of the most recent Figures call.
	Workers int
}

// Utilization reports Busy as a fraction of Wall across the worker pool
// (1.0 = every worker executed cells for the whole run). A Runner that
// has not executed a Figures call yet — zero Workers or zero Wall, e.g.
// when every cell was served from the cache or the store — reports 0
// rather than dividing by zero.
func (m Metrics) Utilization() float64 {
	if m.Wall <= 0 || m.Workers <= 0 {
		return 0
	}
	u := float64(m.Busy) / (float64(m.Wall) * float64(m.Workers))
	if u > 1 {
		u = 1
	}
	return u
}

// CellEvent describes one assembled figure cell. Events are emitted in
// deterministic presentation order, after all cells have executed: every
// field of the stream is identical at any parallelism except WallMS,
// which measures the host.
type CellEvent struct {
	Figure   string  `json:"figure"`
	Series   string  `json:"series"`
	CPUs     int     `json:"cpus"`
	Key      string  `json:"key"`
	Value    float64 `json:"value"`
	CacheHit bool    `json:"cache_hit"`
	// WallMS is the host milliseconds spent executing the cell (0 when
	// the cell was served from the cache).
	WallMS float64 `json:"wall_ms"`
	// SimS is the simulated seconds the cell's run covered.
	SimS float64 `json:"sim_s"`
	// Events is the cell run's event count, when the result reports one
	// (scale and tenants cells report DES events; adapt cells report
	// recorded instrumentation events).
	Events uint64 `json:"events,omitempty"`
	// Faults is the cell run's structured fault-event stream; omitted
	// for cells on fault-free machines.
	Faults []fault.Event `json:"faults,omitempty"`
	// StoreHit marks a cell served from the persistent result store.
	StoreHit bool `json:"store_hit,omitempty"`
	// Failed marks a cell that exhausted harness supervision: Value is 0
	// here (NaN is not valid JSON) and the figure holds a NaN hole.
	Failed bool `json:"failed,omitempty"`
	// Cause classifies a failed cell (panic/livelock/timeout/error).
	Cause FailureCause `json:"cause,omitempty"`
	// Attempts is the number of execution attempts for freshly executed
	// cells (0 when served from a cache or the store).
	Attempts int `json:"attempts,omitempty"`
	// Error is a failed cell's final error message.
	Error string `json:"error,omitempty"`
}

// cacheEntry is one memoized cell execution.
type cacheEntry struct {
	val      cellResult // nil when the attempt panicked or timed out
	err      error
	wall     time.Duration
	attempts int
	stored   bool // served from the persistent store
}

// virt is the simulated time the entry's run covered (a failed run may
// still report the partial time it reached).
func (e *cacheEntry) virt() des.Time {
	if e.val == nil {
		return 0
	}
	return e.val.elapsed()
}

// Runner schedules experiment cells: it enumerates the work-list of any
// set of figures, executes unique cells on a bounded worker pool,
// memoizes results by spec key across figures and calls, and reassembles
// each figure in deterministic order — parallel output is byte-identical
// to sequential. Every execution is supervised (recover, wall-clock
// watchdog, bounded retry per Options); a cell that still fails leaves a
// NaN hole and a CellFailure record instead of aborting the sweep, and a
// persistent Options.Store lets a killed sweep resume without recomputing
// finished cells. Failed executions are memoized like successes — the
// failure was deterministic under supervision, so the Runner never
// silently re-attempts it within one process. A Runner is safe for
// concurrent use.
type Runner struct {
	opts Options

	mu    sync.Mutex
	cache map[string]*cacheEntry
	met   Metrics
}

// NewRunner returns a Runner with an empty memo cache.
func NewRunner(opts Options) *Runner {
	return &Runner{opts: opts, cache: make(map[string]*cacheEntry)}
}

// parallelism resolves the worker pool bound.
func (r *Runner) parallelism() int {
	if r.opts.Parallelism > 0 {
		return r.opts.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// Metrics returns a snapshot of the Runner's counters.
func (r *Runner) Metrics() Metrics {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.met
}

// Figure enumerates, executes and assembles one figure by ID.
func (r *Runner) Figure(id string) (*Figure, error) {
	figs, err := r.Figures(id)
	if err != nil {
		return nil, err
	}
	return figs[0], nil
}

// Figures enumerates the full cell work-list of the requested figures,
// executes unique cells on the worker pool (cells shared between figures
// run exactly once), and assembles the figures in request order.
func (r *Runner) Figures(ids ...string) ([]*Figure, error) {
	plans := make([]*figurePlan, len(ids))
	for i, id := range ids {
		p, err := planFor(id, r.opts)
		if err != nil {
			return nil, err
		}
		plans[i] = p
	}
	return r.runPlans(plans)
}

// runPlans is the scheduling core: dedup the combined work-list against
// the memo cache, drain it through the worker pool, then assemble every
// figure (and emit cell events) in deterministic order.
func (r *Runner) runPlans(plans []*figurePlan) ([]*Figure, error) {
	start := time.Now()

	// Enumerate: one job per spec key that is neither cached, served by
	// the persistent store, nor already queued in this call.
	var jobs []cellSpec
	queued := make(map[string]bool)
	total, storeHits := 0, 0
	r.mu.Lock()
	for _, p := range plans {
		for _, c := range p.cells {
			total++
			k := c.spec.Key()
			if queued[k] {
				continue
			}
			if _, ok := r.cache[k]; ok {
				continue
			}
			if r.opts.Store != nil {
				if v, ok := r.opts.Store.Get(k); ok {
					r.cache[k] = &cacheEntry{val: v.(cellResult), stored: true}
					storeHits++
					continue
				}
			}
			queued[k] = true
			jobs = append(jobs, c.spec)
		}
	}
	hits := total - len(jobs) - storeHits
	r.met.Cells += total
	r.met.CacheHits += hits
	r.met.StoreHits += storeHits
	// Progress reports store hits as cached: neither re-executes.
	done, served := hits+storeHits, hits+storeHits
	r.mu.Unlock()
	if r.opts.Progress != nil && total > 0 {
		r.opts.Progress(done, total, served)
	}

	// Execute: drain unique jobs through the bounded pool.
	workers := r.parallelism()
	if workers > len(jobs) {
		workers = len(jobs)
	}
	var storeErr error
	if len(jobs) > 0 {
		jobCh := make(chan cellSpec)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for spec := range jobCh {
					t0 := time.Now()
					val, err, attempts := superviseCell(spec, r.opts)
					e := &cacheEntry{val: val, err: err, wall: time.Since(t0), attempts: attempts}
					var putErr error
					if err == nil && r.opts.Store != nil {
						putErr = r.opts.Store.Put(spec.Key(), val)
					}
					r.mu.Lock()
					r.cache[spec.Key()] = e
					r.met.Runs++
					r.met.Busy += e.wall
					r.met.Virtual += e.virt()
					r.met.Retries += attempts - 1
					if err != nil {
						r.met.Failures++
					}
					if putErr != nil && storeErr == nil {
						storeErr = putErr
					}
					done++
					dn := done
					prog := r.opts.Progress
					r.mu.Unlock()
					if prog != nil {
						prog(dn, total, served)
					}
				}
			}()
		}
		for _, j := range jobs {
			jobCh <- j
		}
		close(jobCh)
		wg.Wait()
	}
	// A broken store means resume would silently lose results the user
	// asked to persist: fail the sweep loudly.
	if storeErr != nil {
		return nil, storeErr
	}

	// Assemble: walk every plan in presentation order. A failed cell
	// contributes a NaN point and a CellFailure record instead of
	// aborting the sweep, so healthy cells keep their byte-identical
	// values. The first occurrence of a key executed in this call is
	// reported as a fresh run, every other occurrence as a cache hit.
	emitted := make(map[string]bool)
	figs := make([]*Figure, len(plans))
	for i, p := range plans {
		for _, c := range p.cells {
			k := c.spec.Key()
			r.mu.Lock()
			e := r.cache[k]
			r.mu.Unlock()
			if e == nil {
				return nil, fmt.Errorf("exp: %s: cell %q missing after run", c.desc, k)
			}
			fresh := queued[k] && !emitted[k]
			ev := CellEvent{
				Figure:   p.fig.ID,
				Series:   p.fig.Series[c.series].Label,
				CPUs:     c.cpus,
				Key:      k,
				CacheHit: !fresh,
				StoreHit: e.stored,
				SimS:     e.virt().Seconds(),
			}
			if fresh {
				ev.WallMS = float64(e.wall) / float64(time.Millisecond)
				ev.Attempts = e.attempts
			}
			if e.err != nil {
				p.fig.Series[c.series].Points = append(p.fig.Series[c.series].Points, Point{CPUs: c.cpus, Value: math.NaN()})
				p.fig.Failures = append(p.fig.Failures, CellFailure{
					Figure:   p.fig.ID,
					Series:   p.fig.Series[c.series].Label,
					CPUs:     c.cpus,
					Key:      k,
					Cause:    CauseOf(e.err),
					Attempts: e.attempts,
					Error:    e.err.Error(),
				})
				ev.Failed = true
				ev.Cause = CauseOf(e.err)
				ev.Error = e.err.Error()
			} else {
				ev.Value = c.value(e.val)
				ev.Faults = e.val.faults()
				ev.Events = e.val.events()
				p.fig.Series[c.series].Points = append(p.fig.Series[c.series].Points, Point{CPUs: c.cpus, Value: ev.Value})
			}
			if r.opts.OnCell != nil {
				r.opts.OnCell(ev)
			}
			emitted[k] = true
		}
		figs[i] = p.fig
	}

	r.mu.Lock()
	r.met.Wall += time.Since(start)
	if workers > 0 {
		r.met.Workers = workers
	}
	r.mu.Unlock()
	return figs, nil
}

// Run executes spec through the Runner's memo cache: a spec whose key has
// already run (in any prior Run or Figures call) returns the cached
// result without re-simulating.
func (r *Runner) Run(spec RunSpec) (Result, error) {
	v, err := r.runMemo(spec)
	if err != nil {
		return Result{}, err
	}
	return v.(Result), nil
}

// runMemo serves one spec through the cache (then the persistent store),
// executing it under supervision on a miss. Unlike figure assembly, the
// single-spec path returns the failure as an error.
func (r *Runner) runMemo(spec cellSpec) (cellResult, error) {
	k := spec.Key()
	r.mu.Lock()
	r.met.Cells++
	if e, ok := r.cache[k]; ok {
		r.met.CacheHits++
		r.mu.Unlock()
		return e.val, e.err
	}
	r.mu.Unlock()
	if r.opts.Store != nil {
		if v, ok := r.opts.Store.Get(k); ok {
			r.mu.Lock()
			e := &cacheEntry{val: v.(cellResult), stored: true}
			r.cache[k] = e
			r.met.StoreHits++
			r.mu.Unlock()
			return e.val, nil
		}
	}
	t0 := time.Now()
	val, err, attempts := superviseCell(spec, r.opts)
	if err == nil && r.opts.Store != nil {
		if putErr := r.opts.Store.Put(k, val); putErr != nil {
			return val, putErr
		}
	}
	e := &cacheEntry{val: val, err: err, wall: time.Since(t0), attempts: attempts}
	r.mu.Lock()
	r.cache[k] = e
	r.met.Runs++
	r.met.Busy += e.wall
	r.met.Wall += e.wall
	r.met.Virtual += e.virt()
	r.met.Retries += attempts - 1
	if err != nil {
		r.met.Failures++
	}
	r.mu.Unlock()
	return val, err
}
