// Package service implements placement-as-a-service: a job manager with a
// multi-tenant fair scheduler (internal/sched), a content-addressed result
// cache (internal/rescache), and a configurable worker pool, wrapped by
// the HTTP/JSON API that cmd/placerd serves.
//
// A job moves queued → running → done/failed/canceled. Each job owns an
// obs.Tracer backed by an obs.StreamSink, so per-iteration solver telemetry
// can be tailed live over /v1/jobs/{id}/events while the job runs.
// Cancellation and per-job deadlines propagate into the solvers through
// core.PlaceCtx; a canceled job never reports a partial placement, so a
// completed service placement is byte-identical to the cmd/placer output
// for the same netlist, method, and seed.
//
// Scheduling: submissions carry a tenant and a priority class. Interactive
// jobs run before batch jobs; within a class, tenants share the workers by
// weighted fair queuing with weight proportional to inverse circuit size,
// so one tenant's burst of large circuits cannot starve another's stream
// of small ones. Per-tenant in-flight quotas turn overload into explicit
// 429 backpressure instead of unbounded queueing.
//
// Caching: because placements are deterministic — bit-identical at any
// thread count — a completed result is stored under the SHA-256 of its
// canonical netlist fingerprint plus the result-affecting knobs, and an
// identical resubmission is served from the cache byte-for-byte without
// touching the solvers.
//
// SA parallelism: every job reaches core.Options.Threads with a thread
// count, the request's or else Config.Threads, and core runs up to that
// many of the job's SA portfolio chains at once, each on its own
// goroutine. The eplace-a and prev flows run single-threaded either way.
package service

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/netio"
	"repro/internal/obs"
	"repro/internal/obs/metrics"
	"repro/internal/refine"
	"repro/internal/rescache"
	"repro/internal/sched"
)

// State is a job's lifecycle position.
type State string

// Job states.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether no further transition can happen.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Submission errors the HTTP layer maps to status codes.
var (
	// ErrQueueFull is returned when the bounded job queue is at capacity
	// (HTTP 429).
	ErrQueueFull = errors.New("service: job queue full")
	// ErrTenantQuota is returned when the submitting tenant is at its
	// in-flight quota (HTTP 429). The wrapped sched.QuotaError carries the
	// tenant and limits.
	ErrTenantQuota = errors.New("service: tenant at quota")
	// ErrDraining is returned once shutdown has begun (HTTP 503).
	ErrDraining = errors.New("service: server is draining")
)

// SubmitRequest is the body of POST /v1/jobs. Exactly one of Netlist
// (a full netlist JSON document) and Circuit (a built-in benchmark name)
// selects the input.
type SubmitRequest struct {
	Netlist json.RawMessage `json:"netlist,omitempty"`
	Circuit string          `json:"circuit,omitempty"`
	Method  string          `json:"method,omitempty"` // sa | prev | eplace-a (default)
	Seed    int64           `json:"seed,omitempty"`

	// TimeoutSec bounds the run; 0 falls back to the manager's default.
	TimeoutSec float64 `json:"timeout_sec,omitempty"`

	// Optional knobs mirroring core.Options.
	AreaWeight float64 `json:"area_weight,omitempty"`
	Mu         float64 `json:"mu,omitempty"`
	Portfolio  int     `json:"portfolio,omitempty"`
	// Chains is the SA portfolio width: independent parallel chains with a
	// deterministic best-of reduction (0 = 2 chains cold, 1 warm).
	Chains int `json:"chains,omitempty"`
	// Refine appends the ILP large-neighborhood refinement stage after the
	// selected method; RefineWindows bounds its window budget (0 = auto).
	// Refined results are never worse than unrefined at the same seed.
	Refine        bool `json:"refine,omitempty"`
	RefineWindows int  `json:"refine_windows,omitempty"`
	// Threads is how many of the job's SA chains may run at once; the
	// eplace-a and prev flows run single-threaded. Placement bits are
	// identical at every value; only runtime changes. 0 (the default)
	// takes the manager's Config.Threads.
	Threads int `json:"threads,omitempty"`

	// BaseJob re-places this (possibly edited) netlist against a finished
	// job's placement — the incremental (ECO) path. The named job must be
	// done and owned by the same manager; its netlist becomes the warm
	// start's base. Alternatively BasePlacement (a placement JSON document)
	// plus optionally BaseNetlist (the netlist it was solved for; default:
	// the submitted netlist) inlines the prior placement directly. The
	// anchor schedule is the solvers' own; no field tunes it. ECO jobs
	// are charged their perturbed-region size, not the full device count,
	// so the fair scheduler serves them at interactive weight.
	BaseJob       string          `json:"base_job,omitempty"`
	BaseNetlist   json.RawMessage `json:"base_netlist,omitempty"`
	BasePlacement json.RawMessage `json:"base_placement,omitempty"`

	// Tenant identifies the submitting client for fair scheduling and
	// quota accounting. Empty means the "default" tenant.
	Tenant string `json:"tenant,omitempty"`
	// Priority selects the scheduling class: "interactive" (the default)
	// or "batch". Interactive jobs are served before batch jobs.
	Priority string `json:"priority,omitempty"`
}

// JobSpec is a validated submission: the resolved netlist and method plus
// the raw request. It is what a Runner executes.
type JobSpec struct {
	Netlist *circuit.Netlist
	Method  core.Method
	Req     SubmitRequest

	// Priority is the parsed scheduling class from Req.Priority.
	Priority sched.Priority

	// Warm, when non-nil, is the resolved warm start (ECO re-place) for
	// the job; WarmCost is its scheduling cost — one plus the perturbed
	// region size, so small edits are cheap under weighted fair queuing.
	Warm     *core.WarmStart
	WarmCost float64
}

// JobResult is the payload of a completed job. Placement holds the exact
// bytes circuit.WritePlacementJSON produces, so clients (and the CI smoke
// test) can diff it against cmd/placer output.
type JobResult struct {
	AreaUM2      float64 `json:"area_um2"`
	HPWLUM       float64 `json:"hpwl_um"`
	RuntimeSec   float64 `json:"runtime_sec"`
	Legal        bool    `json:"legal"`
	GPIterations int     `json:"gp_iterations,omitempty"`
	ILPNodes     int     `json:"ilp_nodes,omitempty"`
	SAProposals  int     `json:"sa_proposals,omitempty"`
	// Warm-start (ECO) jobs only: anchor-set and perturbed-region sizes.
	WarmAnchored  int             `json:"warm_anchored,omitempty"`
	WarmPerturbed int             `json:"warm_perturbed,omitempty"`
	Placement     json.RawMessage `json:"placement"`
	// Cached marks a result served from the content-addressed cache: the
	// placement bytes (and quality numbers) are those of the original
	// solve; no solver ran for this job.
	Cached bool `json:"cached,omitempty"`
}

// Runner executes one validated job. The default is DefaultRunner; tests
// inject blocking or failing runners to exercise queue mechanics.
type Runner func(ctx context.Context, spec *JobSpec, tracer *obs.Tracer) (*JobResult, error)

// DefaultRunner places spec's netlist with core.PlaceCtx and renders the
// placement JSON. It uses exactly the options cmd/placer derives from its
// flags, keeping service results byte-identical to CLI results at the same
// seed.
func DefaultRunner(ctx context.Context, spec *JobSpec, tracer *obs.Tracer) (*JobResult, error) {
	opt := core.Options{
		Seed:       spec.Req.Seed,
		AreaWeight: spec.Req.AreaWeight,
		Mu:         spec.Req.Mu,
		Portfolio:  spec.Req.Portfolio,
		Chains:     spec.Req.Chains,
		Threads:    spec.Req.Threads,
		Tracer:     tracer,
	}
	if spec.Req.Refine {
		opt.Refine = &refine.Options{Windows: spec.Req.RefineWindows}
	}
	opt.WarmStart = spec.Warm
	res, err := core.PlaceCtx(ctx, spec.Netlist, spec.Method, opt)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := spec.Netlist.WritePlacementJSON(&buf, res.Placement); err != nil {
		return nil, err
	}
	return &JobResult{
		AreaUM2:       res.AreaUM2,
		HPWLUM:        res.HPWLUM,
		RuntimeSec:    res.Runtime.Seconds(),
		Legal:         res.Legal,
		GPIterations:  res.GPIterations,
		ILPNodes:      res.ILPNodes,
		SAProposals:   res.SAProposals,
		WarmAnchored:  res.WarmAnchored,
		WarmPerturbed: res.WarmPerturbed,
		Placement:     buf.Bytes(),
	}, nil
}

// Job is one placement submission and its lifecycle state.
type Job struct {
	id   string
	spec JobSpec
	sink *obs.StreamSink
	trc  *obs.Tracer

	// item is the job's scheduler entry; cacheKey addresses its result in
	// the content cache when hasKey is set. Both are fixed at acceptance.
	item     *sched.Item
	cacheKey rescache.Key
	hasKey   bool

	mu        sync.Mutex
	state     State
	err       string
	result    *JobResult
	submitted time.Time
	started   time.Time
	finished  time.Time
	canceled  bool               // cancel requested (possibly before running)
	cancelRun context.CancelFunc // set while running
	done      chan struct{}      // closed on reaching a terminal state
}

// ID returns the job's unique identifier.
func (j *Job) ID() string { return j.id }

// Spec returns the validated submission.
func (j *Job) Spec() *JobSpec { return &j.spec }

// Sink exposes the job's event stream for tailing.
func (j *Job) Sink() *obs.StreamSink { return j.sink }

// Done is closed once the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Status is a point-in-time snapshot of a job, shaped for JSON.
type Status struct {
	ID          string     `json:"id"`
	State       State      `json:"state"`
	Method      string     `json:"method"`
	Circuit     string     `json:"circuit"`
	Seed        int64      `json:"seed"`
	Tenant      string     `json:"tenant"`
	Priority    string     `json:"priority"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
	// QueueWaitSec is acceptance-to-start latency, present once the job has
	// started. Queue wait and solve time are separate dimensions: a slow
	// response to a client can be a saturated queue or a slow solve, and
	// conflating them misdiagnoses capacity problems.
	QueueWaitSec *float64 `json:"queue_wait_sec,omitempty"`
	// BaseJob echoes an ECO submission's base-job reference; Warm marks
	// any warm-start job (base_job or inline base).
	BaseJob string     `json:"base_job,omitempty"`
	Warm    bool       `json:"warm,omitempty"`
	Events  int        `json:"events"`
	Error   string     `json:"error,omitempty"`
	Result  *JobResult `json:"result,omitempty"`
}

// Status snapshots the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:          j.id,
		State:       j.state,
		Method:      j.spec.Req.Method,
		Circuit:     j.spec.Netlist.Name,
		Seed:        j.spec.Req.Seed,
		Tenant:      j.spec.Req.Tenant,
		Priority:    j.spec.Priority.String(),
		SubmittedAt: j.submitted,
		BaseJob:     j.spec.Req.BaseJob,
		Warm:        j.spec.Warm != nil,
		Events:      j.sink.Len(),
		Error:       j.err,
		Result:      j.result,
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
		w := j.started.Sub(j.submitted).Seconds()
		st.QueueWaitSec = &w
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	return st
}

// Config sizes a Manager.
type Config struct {
	// Workers is the worker-pool size (default runtime.NumCPU()).
	Workers int
	// QueueCap bounds the queue of not-yet-running jobs (default 64).
	QueueCap int
	// TenantQuota bounds each tenant's in-flight jobs — queued plus
	// running. 0 means unlimited. Submissions beyond it are rejected with
	// ErrTenantQuota (HTTP 429).
	TenantQuota int
	// CacheBytes bounds the content-addressed result cache (total stored
	// result bytes, LRU-evicted). 0 disables caching.
	CacheBytes int64
	// DefaultTimeout caps jobs whose request sets no timeout_sec (0 = no
	// limit).
	DefaultTimeout time.Duration
	// Threads fills zero-valued request thread counts: how many of a
	// job's SA chains may run at once (0 leaves it to core, which takes
	// runtime.NumCPU(); 1 runs the chains one after another). Placement
	// bits do not depend on it.
	Threads int
	// Runner executes jobs (default DefaultRunner).
	Runner Runner
}

// Manager owns the job table, the fair scheduler, the result cache and
// the worker pool.
type Manager struct {
	cfg     Config
	sched   *sched.Queue
	cache   *rescache.Cache // nil when caching is disabled
	wg      sync.WaitGroup
	started time.Time

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // submission order, for listing
	seq      int
	draining bool
	running  int

	// reg is the process-wide Prometheus-style registry and the service's
	// only count of anything: job latency histograms, outcome, rejection
	// and cache counters, and (set at scrape time) queue and worker
	// gauges. Jobs feed it their stage spans, kernel timings and summary
	// counters through a SpanSink on their tracer.
	reg *metrics.Registry
}

// NewManager starts the worker pool and returns the manager.
func NewManager(cfg Config) *Manager {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 64
	}
	if cfg.Runner == nil {
		cfg.Runner = DefaultRunner
	}
	m := &Manager{
		cfg:     cfg,
		sched:   sched.New(sched.Config{Capacity: cfg.QueueCap, TenantQuota: cfg.TenantQuota}),
		cache:   rescache.New(cfg.CacheBytes),
		started: time.Now(),
		jobs:    map[string]*Job{},
		reg:     metrics.New(),
	}
	m.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go m.worker()
	}
	return m
}

// maxGenDevices bounds the device count of a "gen:" circuit a request
// names. It is what the request body limit already admits inline: the
// netlist JSON of gen:16384@1 is 8,194,262 bytes, under DefaultMaxBody.
const maxGenDevices = 16384

// maxWidth bounds a request's threads, chains and portfolio, so that one
// request cannot make a job allocate for, start or run an unbounded number
// of SA chains or ePlace-A candidates.
const maxWidth = 64

// Validate resolves and checks a submission, returning the runnable spec.
func (m *Manager) validate(req SubmitRequest) (*JobSpec, error) {
	if req.Method == "" {
		req.Method = "eplace-a"
	}
	method, err := core.ParseMethod(req.Method)
	if err != nil {
		return nil, err
	}
	prio, err := sched.ParsePriority(req.Priority)
	if err != nil {
		return nil, err
	}
	if req.Tenant == "" {
		req.Tenant = "default"
	}
	if req.TimeoutSec < 0 {
		return nil, fmt.Errorf("service: negative timeout_sec %g", req.TimeoutSec)
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"threads", req.Threads}, {"chains", req.Chains}, {"portfolio", req.Portfolio}} {
		if f.v < 0 {
			return nil, fmt.Errorf("service: negative %s %d", f.name, f.v)
		}
		if f.v > maxWidth {
			return nil, fmt.Errorf("service: %s %d exceeds the maximum %d", f.name, f.v, maxWidth)
		}
	}
	if req.RefineWindows < 0 {
		return nil, fmt.Errorf("service: negative refine_windows %d", req.RefineWindows)
	}
	if req.Mu < 0 {
		return nil, fmt.Errorf("service: negative mu %g", req.Mu)
	}
	if req.Threads == 0 {
		req.Threads = m.cfg.Threads
	}
	var n *circuit.Netlist
	switch {
	case len(req.Netlist) > 0 && req.Circuit != "":
		return nil, errors.New("service: request sets both netlist and circuit; choose one")
	case len(req.Netlist) > 0:
		n, err = netio.DecodeBytes(req.Netlist, "netlist")
		if err != nil {
			return nil, err
		}
	case req.Circuit != "":
		if gen.IsSpec(req.Circuit) {
			// Bound the netlist before generating it: the spec is a few
			// bytes, and the body limit does not cover what it expands to.
			p, err := gen.ParseSpec(req.Circuit)
			if err != nil {
				return nil, err
			}
			if p.Devices > maxGenDevices {
				return nil, fmt.Errorf("service: circuit %q is over the %d-device limit for generated circuits",
					req.Circuit, maxGenDevices)
			}
		}
		n, _, err = netio.Load("", req.Circuit)
		if err != nil {
			return nil, err
		}
	default:
		return nil, errors.New("service: request needs a netlist document or a built-in circuit name")
	}
	spec := &JobSpec{Netlist: n, Method: method, Req: req, Priority: prio}
	if err := m.resolveWarm(spec); err != nil {
		return nil, err
	}
	return spec, nil
}

// resolveWarm turns a submission's base-job reference or inline base
// placement into the spec's core.WarmStart, and prices the job by its
// perturbed-region size for the fair scheduler.
func (m *Manager) resolveWarm(spec *JobSpec) error {
	req := &spec.Req
	hasInline := len(req.BasePlacement) > 0
	switch {
	case req.BaseJob == "" && !hasInline:
		if len(req.BaseNetlist) > 0 {
			return errors.New("service: base_netlist without base_placement")
		}
		return nil
	case req.BaseJob != "" && (hasInline || len(req.BaseNetlist) > 0):
		return errors.New("service: request sets both base_job and an inline base; choose one")
	}
	var baseNet *circuit.Netlist
	var doc *circuit.PlacementDoc
	if req.BaseJob != "" {
		base, ok := m.Get(req.BaseJob)
		if !ok {
			return fmt.Errorf("service: base_job %q not found", req.BaseJob)
		}
		st := base.Status()
		if st.State != StateDone || st.Result == nil {
			return fmt.Errorf("service: base_job %q is %s, not done", req.BaseJob, st.State)
		}
		var err error
		doc, err = circuit.ReadPlacementDoc(bytes.NewReader(st.Result.Placement))
		if err != nil {
			return fmt.Errorf("service: base_job %q placement: %w", req.BaseJob, err)
		}
		baseNet = base.Spec().Netlist
	} else {
		var err error
		doc, err = circuit.ReadPlacementDoc(bytes.NewReader(req.BasePlacement))
		if err != nil {
			return fmt.Errorf("service: base_placement: %w", err)
		}
		baseNet = spec.Netlist
		if len(req.BaseNetlist) > 0 {
			baseNet, err = netio.DecodeBytes(req.BaseNetlist, "base_netlist")
			if err != nil {
				return err
			}
		}
	}
	prior, err := netio.PlacementForNetlist(baseNet, doc)
	if err != nil {
		return err
	}
	spec.Warm = &core.WarmStart{Placement: prior}
	if baseNet != spec.Netlist {
		spec.Warm.Base = baseNet
	}
	d := netio.DiffNetlists(baseNet, spec.Netlist)
	spec.WarmCost = float64(1 + d.PerturbedCount())
	return nil
}

// cachedResult is the cache's storage envelope for a JobResult. The
// placement travels as []byte (base64 in JSON), NOT as the RawMessage the
// API serves: json.Marshal compacts RawMessage content, which would break
// the byte-identity guarantee for whitespace-formatted placement JSON.
type cachedResult struct {
	Result    JobResult `json:"result"` // Placement nil-ed out
	Placement []byte    `json:"placement"`
}

func encodeCachedResult(res *JobResult) ([]byte, error) {
	cr := cachedResult{Result: *res, Placement: res.Placement}
	cr.Result.Placement = nil
	return json.Marshal(&cr)
}

func decodeCachedResult(b []byte) (*JobResult, error) {
	var cr cachedResult
	if err := json.Unmarshal(b, &cr); err != nil {
		return nil, err
	}
	r := cr.Result
	r.Placement = json.RawMessage(cr.Placement)
	return &r, nil
}

// cacheKeyFor derives a job's content address: the canonical netlist
// fingerprint plus every knob that affects the output bits. Thread count,
// timeout, tenant, and priority are deliberately excluded — placements are
// bit-identical across them, so requests differing only there share one
// entry. Floats contribute their exact IEEE-754 bits.
func cacheKeyFor(spec *JobSpec) rescache.Key {
	fb := func(f float64) string { return strconv.FormatUint(math.Float64bits(f), 16) }
	fields := []string{
		spec.Method.ShortName(),
		strconv.FormatInt(spec.Req.Seed, 10),
		fb(spec.Req.AreaWeight),
		fb(spec.Req.Mu),
		strconv.Itoa(spec.Req.Portfolio),
		strconv.Itoa(spec.Req.Chains),
		// Refined and unrefined submissions must never share an entry:
		// refinement changes the placement bits, and the window budget
		// changes how far it runs.
		strconv.FormatBool(spec.Req.Refine),
		strconv.Itoa(spec.Req.RefineWindows),
	}
	if w := spec.Warm; w != nil {
		// A warm solve's bits depend on the base netlist and the exact base
		// placement — never on how the base was named (job reference vs
		// inline), so an ECO re-submission hits the cache across either
		// form but never collides with a cold solve.
		baseNet := w.Base
		if baseNet == nil {
			baseNet = spec.Netlist
		}
		nfp := netio.Fingerprint(baseNet)
		pfp := netio.FingerprintPlacement(baseNet, w.Placement)
		fields = append(fields, "warm",
			hex.EncodeToString(nfp[:]),
			hex.EncodeToString(pfp[:]),
		)
	}
	return rescache.NewKey(netio.Fingerprint(spec.Netlist), fields...)
}

// Submit validates req and enqueues a job with the fair scheduler. It
// returns ErrQueueFull at global queue capacity, ErrTenantQuota at the
// tenant's in-flight bound, and ErrDraining after shutdown has begun.
// Validation failures surface before a job is created, so malformed
// requests never occupy queue slots.
func (m *Manager) Submit(req SubmitRequest) (*Job, error) {
	spec, err := m.validate(req)
	if err != nil {
		m.rejectedCounter("invalid").Inc()
		return nil, err
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		m.rejectedCounter("draining").Inc()
		return nil, ErrDraining
	}
	m.seq++
	job := &Job{
		id:        fmt.Sprintf("job-%06d", m.seq),
		spec:      *spec,
		sink:      obs.NewStreamSink(),
		state:     StateQueued,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
	if m.cache != nil {
		job.cacheKey = cacheKeyFor(spec)
		job.hasKey = true
	}
	// The SpanSink rides alongside the streaming sink: the span events that
	// clients tail over /events, and the solvers' kernel timings, also feed
	// latency histograms.
	job.trc = obs.New(job.sink, metrics.NewSpanSink(m.reg, "placerd_stage_seconds",
		"method", spec.Req.Method, "size", metrics.SizeClass(len(spec.Netlist.Devices))))
	// The job's scheduling weight is inverse to its circuit size: the
	// device count is the cost the fair queue charges the tenant. ECO
	// jobs only pay for their perturbed region — a small edit against a
	// large finished placement schedules like a small job.
	cost := float64(len(spec.Netlist.Devices))
	if spec.Warm != nil {
		cost = spec.WarmCost
	}
	job.item = &sched.Item{
		Tenant:   spec.Req.Tenant,
		Priority: spec.Priority,
		Cost:     cost,
		Payload:  job,
	}
	if err := m.sched.Enqueue(job.item); err != nil {
		m.seq-- // slot not taken; reuse the ID
		var quota *sched.QuotaError
		switch {
		case errors.As(err, &quota):
			m.rejectedCounter("tenant_quota").Inc()
			return nil, fmt.Errorf("%w: %w", ErrTenantQuota, err)
		case errors.Is(err, sched.ErrClosed):
			m.rejectedCounter("draining").Inc()
			return nil, ErrDraining
		default: // *sched.FullError
			m.rejectedCounter("queue_full").Inc()
			return nil, fmt.Errorf("%w: %w", ErrQueueFull, err)
		}
	}
	m.jobs[job.id] = job
	m.order = append(m.order, job.id)
	return job, nil
}

// rejectReasons is the closed set of rejectedCounter reasons.
var rejectReasons = []string{"invalid", "queue_full", "tenant_quota", "draining"}

// rejectedCounter resolves the per-reason rejection counter; reason is one
// of rejectReasons.
func (m *Manager) rejectedCounter(reason string) *metrics.Counter {
	return m.reg.Counter("placerd_jobs_rejected_total",
		"Submissions rejected before being accepted, by reason.",
		"reason", reason)
}

// jobsCounter resolves the counter of jobs that reached terminal state st.
func (m *Manager) jobsCounter(st State) *metrics.Counter {
	return m.reg.Counter("placerd_jobs_total",
		"Jobs that reached a terminal state, by outcome.",
		"state", string(st))
}

// Totals reads the registry's job counters: jobs that finished done,
// failed and canceled, and submissions rejected for any reason. A series
// not yet observed is registered at zero by the read, so placerd calls it
// once, after its HTTP server has shut down.
func (m *Manager) Totals() (done, failed, canceled, rejected int64) {
	for _, reason := range rejectReasons {
		rejected += int64(m.rejectedCounter(reason).Value())
	}
	return int64(m.jobsCounter(StateDone).Value()), int64(m.jobsCounter(StateFailed).Value()),
		int64(m.jobsCounter(StateCanceled).Value()), rejected
}

// Get returns a job by ID.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Jobs lists all jobs in submission order.
func (m *Manager) Jobs() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id])
	}
	return out
}

// Cancel requests cancellation: a queued job is finalized immediately, a
// running job has its context canceled (the solvers stop at their next
// callback poll), and a terminal job is left untouched (no error — cancel
// is idempotent).
func (m *Manager) Cancel(id string) error {
	j, ok := m.Get(id)
	if !ok {
		return fmt.Errorf("service: no job %q", id)
	}
	j.mu.Lock()
	j.canceled = true
	switch j.state {
	case StateQueued:
		j.state = StateCanceled
		j.finished = time.Now()
		j.err = context.Canceled.Error()
		j.mu.Unlock()
		// Drop the scheduler entry: the quota releases immediately and the
		// job never reaches a worker. If the pop already happened (Remove
		// reports false), runJob's state check skips it and the worker's
		// Done call releases the quota instead.
		m.sched.Remove(j.item)
		j.trc.Close() // end event streams
		m.finalize(j, StateCanceled)
		close(j.done)
	case StateRunning:
		cancel := j.cancelRun
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
	default:
		j.mu.Unlock()
	}
	return nil
}

// worker pops jobs in fair-scheduling order until the queue closes on
// drain. The sched.Done call after each job releases the tenant's
// in-flight quota slot.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		it, ok := m.sched.Pop()
		if !ok {
			return
		}
		m.runJob(it.Payload.(*Job))
		m.sched.Done(it.Tenant)
	}
}

// runJob executes one job end to end, including state transitions and
// the service counters.
func (m *Manager) runJob(job *Job) {
	job.mu.Lock()
	if job.state != StateQueued { // canceled while queued
		job.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	timeout := m.cfg.DefaultTimeout
	if job.spec.Req.TimeoutSec > 0 {
		timeout = time.Duration(job.spec.Req.TimeoutSec * float64(time.Second))
	}
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, timeout)
	}
	job.state = StateRunning
	job.started = time.Now()
	job.cancelRun = cancel
	canceledEarly := job.canceled
	queueWait := job.started.Sub(job.submitted)
	job.mu.Unlock()
	if canceledEarly {
		cancel() // Cancel raced between queue pop and cancelRun being set
	}
	m.reg.Histogram("placerd_job_queue_wait_seconds",
		"Time a job spent queued: acceptance to start of execution.",
		metrics.DefBuckets, "method", job.spec.Req.Method,
		"priority", job.spec.Priority.String()).Observe(queueWait.Seconds())
	m.mu.Lock()
	m.running++
	m.mu.Unlock()

	// Cache probe first: determinism makes a stored result byte-identical
	// to the solve it replaces, so a hit skips the runner entirely.
	var res *JobResult
	var err error
	cached := false
	if job.hasKey {
		if b, ok := m.cache.Get(job.cacheKey); ok {
			if r, jerr := decodeCachedResult(b); jerr == nil {
				r.Cached = true
				res, cached = r, true
			}
		}
		result := "miss"
		if cached {
			result = "hit"
		}
		m.reg.Counter("placerd_cache_requests_total",
			"Result-cache lookups by executed jobs, by outcome.",
			"result", result).Inc()
	}
	if !cached {
		res, err = m.cfg.Runner(ctx, &job.spec, job.trc)
	}
	cancel()
	// Flush the summary event, which also adds the run's solver counters to
	// the registry, and end event streams. This precedes finalize and
	// close(done), so a waiter on Done scrapes a registry holding the job.
	job.trc.Close()

	job.mu.Lock()
	job.finished = time.Now()
	if !cached {
		// Cache hits are not solves: folding their ~0s turnarounds into the
		// solve-time histogram would fake a latency improvement.
		m.reg.Histogram("placerd_job_solve_seconds",
			"Job execution wall time, queue wait excluded; cache hits are not counted.",
			metrics.DefBuckets, "method", job.spec.Req.Method,
			"size", metrics.SizeClass(len(job.spec.Netlist.Devices))).
			Observe(job.finished.Sub(job.started).Seconds())
	}
	job.cancelRun = nil
	var final State
	switch {
	case err == nil:
		final = StateDone
		job.result = res
		if !cached && job.hasKey {
			// Store the fresh result under its content address; a later
			// identical submission replays these bytes without a solve.
			if b, jerr := encodeCachedResult(res); jerr == nil {
				m.cache.Put(job.cacheKey, b)
			}
		}
	case job.canceled || errors.Is(err, context.Canceled):
		final = StateCanceled
		job.err = err.Error()
	default: // includes context.DeadlineExceeded
		final = StateFailed
		job.err = err.Error()
	}
	job.state = final
	job.mu.Unlock()
	m.finalize(job, final)
	close(job.done)
}

// finalize counts the job's outcome and releases its running slot.
// Callers run it before closing the job's done channel, so a waiter on
// Done scrapes the job's outcome.
func (m *Manager) finalize(job *Job, final State) {
	m.jobsCounter(final).Inc()
	m.mu.Lock()
	defer m.mu.Unlock()
	if final != StateCanceled || !job.started.IsZero() {
		m.running--
		if m.running < 0 {
			m.running = 0 // canceled-while-queued jobs never incremented
		}
	}
}

// Drain stops intake and waits until every accepted job (queued and
// running) has finished, or ctx expires. It is the SIGTERM path: accepted
// work completes, new work is rejected with ErrDraining.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	if !m.draining {
		m.draining = true
		m.sched.Close()
	}
	m.mu.Unlock()
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Abort cancels every non-terminal job (used when a drain deadline passes
// or on a second termination signal).
func (m *Manager) Abort() {
	for _, j := range m.Jobs() {
		j.mu.Lock()
		terminal := j.state.Terminal()
		j.mu.Unlock()
		if !terminal {
			m.Cancel(j.id)
		}
	}
}

// Health is the /healthz snapshot: pool size, queue occupancy, and
// whether shutdown has begun.
type Health struct {
	Workers    int
	QueueDepth int
	QueueCap   int
	Running    int
	Draining   bool
}

// Health snapshots the manager.
func (m *Manager) Health() Health {
	depth := m.sched.Stats().Queued
	m.mu.Lock()
	defer m.mu.Unlock()
	return Health{
		Workers:    m.cfg.Workers,
		QueueDepth: depth,
		QueueCap:   m.cfg.QueueCap,
		Running:    m.running,
		Draining:   m.draining,
	}
}

// WritePrometheus renders the Prometheus text view: the queue and worker
// gauges are refreshed from live manager state at scrape time, then the
// whole registry — job latency histograms, per-stage and per-kernel solver
// histograms, solver counters, outcome, rejection and cache counters — is
// written in deterministic order.
func (m *Manager) WritePrometheus(w io.Writer) error {
	ss := m.sched.Stats()
	h := m.Health()

	g := func(name, help string, v float64) { m.reg.Gauge(name, help).Set(v) }
	g("placerd_queue_depth", "Jobs waiting in the scheduler queue.", float64(ss.Queued))
	g("placerd_queue_cap", "Capacity of the job queue.", float64(h.QueueCap))
	for tenant, ts := range ss.Tenants {
		m.reg.Gauge("placerd_tenant_queue_depth",
			"Jobs a tenant has waiting in the scheduler queue.",
			"tenant", tenant).Set(float64(ts.Queued))
		m.reg.Gauge("placerd_tenant_inflight_jobs",
			"A tenant's in-flight jobs (queued plus running), the quantity quotas bound.",
			"tenant", tenant).Set(float64(ts.InFlight))
	}
	for prio, n := range ss.ByPriority {
		m.reg.Gauge("placerd_queue_depth_by_priority",
			"Jobs waiting in the scheduler queue, by priority class.",
			"priority", prio).Set(float64(n))
	}
	if m.cache != nil {
		cs := m.cache.Stats()
		g("placerd_cache_bytes", "Bytes of placement results held by the content-addressed cache.", float64(cs.Bytes))
		g("placerd_cache_entries", "Entries in the content-addressed result cache.", float64(cs.Entries))
	}
	g("placerd_running_jobs", "Jobs currently executing.", float64(h.Running))
	g("placerd_workers", "Size of the worker pool.", float64(h.Workers))
	g("placerd_worker_utilization", "Fraction of workers busy, running/workers.",
		float64(h.Running)/float64(h.Workers))
	d := 0.0
	if h.Draining {
		d = 1
	}
	g("placerd_draining", "1 once shutdown has begun and intake is closed.", d)
	g("placerd_uptime_seconds", "Seconds since the manager started.", time.Since(m.started).Seconds())
	return m.reg.WritePrometheus(w)
}
