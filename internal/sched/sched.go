// Package sched is the placement service's fair job scheduler: the
// replacement for the single bounded FIFO that served placerd's first
// incarnation. Under multi-tenant load a FIFO has two failure modes this
// package is built to remove: one tenant enqueueing a burst starves every
// other tenant behind it, and one huge circuit parks in front of a stream
// of interactive-sized jobs. The scheduler provides:
//
//   - Priority classes. Interactive jobs are always served before batch
//     jobs; within a class, tenants compete fairly. Per-tenant quotas
//     bound how much interactive work one client can pin ahead of the
//     batch tier.
//
//   - Weighted fair queuing across tenants, with per-job weight
//     proportional to the INVERSE of the job's circuit size. Each queued
//     job carries a virtual finish time F = max(V, F_tenant) + cost/w
//     where w = 1/cost, i.e. the virtual service charge grows as cost²:
//     a tenant submitting large circuits advances its virtual clock much
//     faster than one submitting small circuits, so small interactive
//     jobs keep flowing while big batch solves take their fair turns.
//     Dequeue picks the backlogged tenant whose head job has the minimum
//     virtual finish time.
//
//   - Per-tenant quotas with backpressure. A tenant may have at most
//     Config.TenantQuota jobs in flight (queued + running); beyond it,
//     Enqueue fails with a *QuotaError the HTTP layer maps to 429.
//
// Ordering is fully deterministic: virtual times are assigned from
// enqueue order and job costs alone, and ties break on the global
// enqueue sequence number. The same submissions in the same order
// dequeue in the same order on every run — which is what lets the
// fairness properties be pinned by exact-order tests.
package sched

import (
	"errors"
	"fmt"
	"sync"
)

// Priority is a scheduling class. Lower values are served first.
type Priority int

// The two priority classes the service exposes.
const (
	// Interactive is the default class: latency-sensitive submissions
	// (editing loops, UI-driven placements).
	Interactive Priority = iota
	// Batch is throughput work (sweeps, regeneration runs) that yields to
	// interactive jobs.
	Batch
	numPriorities
)

func (p Priority) String() string {
	switch p {
	case Interactive:
		return "interactive"
	case Batch:
		return "batch"
	default:
		return fmt.Sprintf("priority(%d)", int(p))
	}
}

// ParsePriority maps the wire names to a Priority. The empty string is
// Interactive (the default class for untagged submissions).
func ParsePriority(s string) (Priority, error) {
	switch s {
	case "", "interactive":
		return Interactive, nil
	case "batch":
		return Batch, nil
	}
	return 0, fmt.Errorf("sched: unknown priority %q (want interactive or batch)", s)
}

// Item is one schedulable job. Tenant, Priority, Cost, and Payload are
// set by the caller before Enqueue; the scheduling fields are private.
type Item struct {
	Tenant   string
	Priority Priority
	// Cost is the job's size measure (the service uses the device count).
	// Non-positive costs are treated as 1.
	Cost    float64
	Payload any

	seq     int64   // global enqueue sequence, the deterministic tie-break
	vfinish float64 // virtual finish time within the priority class
	queued  bool    // guarded by the owning Queue's mutex
}

// ErrClosed is returned by Enqueue after Close (the drain path).
var ErrClosed = errors.New("sched: queue closed")

// FullError reports that the global queued-job capacity is exhausted.
type FullError struct{ Capacity int }

func (e *FullError) Error() string {
	return fmt.Sprintf("sched: queue full (capacity %d)", e.Capacity)
}

// QuotaError reports that a tenant is at its in-flight quota.
type QuotaError struct {
	Tenant   string
	Limit    int
	InFlight int
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("sched: tenant %q at quota (%d of %d jobs in flight)", e.Tenant, e.InFlight, e.Limit)
}

// Config sizes a Queue.
type Config struct {
	// Capacity bounds the total number of queued (not yet dequeued) items
	// (default 64).
	Capacity int
	// TenantQuota bounds each tenant's in-flight items — queued plus
	// dequeued-but-not-Done. 0 means unlimited.
	TenantQuota int
}

// tenantState is one tenant's scheduling state. States are kept for the
// process lifetime (tenant-name cardinality is operator-bounded), so
// per-tenant depth gauges report departed tenants as zero rather than
// disappearing.
type tenantState struct {
	name     string
	inflight int                    // queued + running (until Done)
	lastVF   [numPriorities]float64 // virtual finish of the tenant's newest item per class
	q        [numPriorities][]*Item // per-class FIFO (WFQ orders across tenants, not within)
}

// Queue is the fair scheduler. Enqueue never blocks (it fails fast with
// backpressure errors); Pop blocks until an item is available or the
// queue is closed and drained.
type Queue struct {
	cfg Config

	mu      sync.Mutex
	cond    *sync.Cond
	closed  bool
	queued  int
	seq     int64
	vtime   [numPriorities]float64 // per-class virtual clock, advanced on dequeue
	tenants map[string]*tenantState
}

// New returns a queue with the given bounds.
func New(cfg Config) *Queue {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 64
	}
	q := &Queue{cfg: cfg, tenants: map[string]*tenantState{}}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Enqueue admits it or fails with backpressure: ErrClosed once draining,
// *FullError at global capacity, *QuotaError at the tenant's in-flight
// bound. On success the item is owned by the queue until Pop or Remove.
func (q *Queue) Enqueue(it *Item) error {
	if it.Priority < 0 || it.Priority >= numPriorities {
		return fmt.Errorf("sched: invalid priority %d", int(it.Priority))
	}
	cost := it.Cost
	if cost <= 0 {
		cost = 1
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	if q.queued >= q.cfg.Capacity {
		return &FullError{Capacity: q.cfg.Capacity}
	}
	ts := q.tenants[it.Tenant]
	if ts == nil {
		ts = &tenantState{name: it.Tenant}
		q.tenants[it.Tenant] = ts
	}
	if q.cfg.TenantQuota > 0 && ts.inflight >= q.cfg.TenantQuota {
		return &QuotaError{Tenant: it.Tenant, Limit: q.cfg.TenantQuota, InFlight: ts.inflight}
	}

	// Weighted fair queuing: the job's virtual service charge is
	// cost/weight with weight ∝ 1/cost, i.e. cost². Normalized by a
	// reference cost so typical circuit sizes produce O(cost)-scale
	// clocks (the constant cancels in comparisons; it only keeps the
	// numbers readable in debugging).
	const refCost = 64.0
	charge := cost * cost / refCost
	p := it.Priority
	start := q.vtime[p]
	if ts.lastVF[p] > start {
		start = ts.lastVF[p]
	}
	it.vfinish = start + charge
	ts.lastVF[p] = it.vfinish
	q.seq++
	it.seq = q.seq
	it.queued = true
	ts.q[p] = append(ts.q[p], it)
	ts.inflight++
	q.queued++
	q.cond.Signal()
	return nil
}

// Pop removes and returns the next item by scheduling order: the
// non-empty priority class closest to Interactive, and within it the
// tenant head-of-line item with minimum virtual finish time (ties break
// on enqueue order). It blocks while the queue is empty and open;
// (nil, false) means closed and fully drained. The caller must call
// Done(item.Tenant) once the item's work finishes, to release quota.
func (q *Queue) Pop() (*Item, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if it := q.popLocked(); it != nil {
			return it, true
		}
		if q.closed {
			return nil, false
		}
		q.cond.Wait()
	}
}

// popLocked implements the scheduling decision. Linear in the number of
// tenants — tenant counts are operator-scale, and a linear scan keeps
// the virtual-time bookkeeping trivially deterministic.
func (q *Queue) popLocked() *Item {
	for p := Priority(0); p < numPriorities; p++ {
		var best *tenantState
		for _, ts := range q.tenants {
			if len(ts.q[p]) == 0 {
				continue
			}
			if best == nil {
				best = ts
				continue
			}
			h, bh := ts.q[p][0], best.q[p][0]
			if h.vfinish < bh.vfinish || (h.vfinish == bh.vfinish && h.seq < bh.seq) {
				best = ts
			}
		}
		if best == nil {
			continue
		}
		it := best.q[p][0]
		best.q[p] = best.q[p][1:]
		it.queued = false
		q.queued--
		if it.vfinish > q.vtime[p] {
			q.vtime[p] = it.vfinish
		}
		return it
	}
	return nil
}

// Remove drops a still-queued item without running it, releasing its
// queue slot and tenant quota, and reports whether it did. False means
// the item was already dequeued (or never enqueued) — the caller's
// running-job cancelation path owns it then, and quota is released by
// its eventual Done.
func (q *Queue) Remove(it *Item) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !it.queued {
		return false
	}
	ts := q.tenants[it.Tenant]
	lst := ts.q[it.Priority]
	for i, cur := range lst {
		if cur == it {
			ts.q[it.Priority] = append(lst[:i], lst[i+1:]...)
			it.queued = false
			ts.inflight--
			q.queued--
			return true
		}
	}
	return false
}

// Done releases the tenant quota held by a previously popped item. Call
// exactly once per successful Pop, after the job reaches a terminal
// state.
func (q *Queue) Done(tenant string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if ts := q.tenants[tenant]; ts != nil && ts.inflight > 0 {
		ts.inflight--
	}
}

// Close stops intake: subsequent Enqueues fail with ErrClosed, and Pop
// keeps returning queued items until empty, then (nil, false). This is
// the graceful-drain contract — accepted work still runs.
func (q *Queue) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.cond.Broadcast()
}

// TenantStat is one tenant's scheduling snapshot.
type TenantStat struct {
	Queued   int
	InFlight int
}

// Stats is a point-in-time snapshot of the queue.
type Stats struct {
	Queued     int
	ByPriority map[string]int
	Tenants    map[string]TenantStat
}

// Stats snapshots the queue, including every tenant ever seen (so gauges
// report zero rather than vanishing when a tenant's backlog empties).
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	st := Stats{
		Queued:     q.queued,
		ByPriority: map[string]int{},
	}
	for p := Priority(0); p < numPriorities; p++ {
		n := 0
		for _, ts := range q.tenants {
			n += len(ts.q[p])
		}
		st.ByPriority[p.String()] = n
	}
	if len(q.tenants) > 0 {
		st.Tenants = map[string]TenantStat{}
		for name, ts := range q.tenants {
			depth := 0
			for p := Priority(0); p < numPriorities; p++ {
				depth += len(ts.q[p])
			}
			st.Tenants[name] = TenantStat{Queued: depth, InFlight: ts.inflight}
		}
	}
	return st
}
