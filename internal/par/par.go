// Package par provides a reusable worker pool and the deterministic shard
// geometry of the placement kernels.
//
// Determinism is the design constraint that shapes everything here. The
// placement pipeline promises bit-identical results for a given seed
// regardless of how many OS threads execute it (the CI byte-identity smoke
// between placer and placerd depends on it, and so does cross-run QoR
// comparison in the bench harness). Floating-point addition is not
// associative, so every sharded reduction follows the same discipline:
//
//  1. Work is split into shards whose count and boundaries depend only on
//     the problem size — never on the worker count. ShardCount(n, grain)
//     is a pure function of n.
//  2. Each shard writes its partial results into shard-indexed storage
//     (per-shard buffers, or disjoint output ranges).
//  3. Partials are merged sequentially in shard-index order.
//
// Steps 1 and 3 make the summation tree a function of the input alone. The
// GP kernels run their shards inline, in shard order; a Pool runs
// coarse-grained independent tasks, the SA portfolio chains, whose
// results are reduced in task order.
//
// A nil *Pool is valid everywhere and means "run inline on the calling
// goroutine": library code can accept an optional pool without branching.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a fixed-size set of reusable workers. The zero value is not
// usable; call NewPool. A nil *Pool is valid for every method and runs the
// work inline on the caller, which keeps single-threaded paths free of
// goroutine and channel overhead.
//
// Pool methods are safe for concurrent use by multiple goroutines; the
// tasks of concurrent Run calls share the worker set.
type Pool struct {
	workers int

	mu     sync.Mutex
	cond   *sync.Cond // signaled when tasks arrive or the pool closes
	queue  []func()   // pending helper tasks; head is the next to run
	head   int
	closed bool
}

// NewPool creates a pool with the given number of workers. workers <= 1
// returns nil: the nil pool runs everything inline, so "one thread" and
// "no pool" are the same fully sequential code path.
func NewPool(workers int) *Pool {
	if workers <= 1 {
		return nil
	}
	p := &Pool{workers: workers}
	p.cond = sync.NewCond(&p.mu)
	for i := 0; i < workers; i++ {
		go p.workerLoop()
	}
	return p
}

// workerLoop pops queued tasks until the pool is closed and drained.
func (p *Pool) workerLoop() {
	for {
		p.mu.Lock()
		for p.head == len(p.queue) && !p.closed {
			p.cond.Wait()
		}
		if p.head == len(p.queue) {
			p.mu.Unlock()
			return // closed and drained
		}
		f := p.queue[p.head]
		p.queue[p.head] = nil
		p.head++
		if p.head == len(p.queue) {
			p.queue = p.queue[:0]
			p.head = 0
		}
		p.mu.Unlock()
		f()
	}
}

// submit enqueues helper tasks without ever blocking on worker
// availability. Queued tasks are self-canceling: a Run's helpers claim
// shards from an atomic counter, so a helper that reaches the front of
// the queue after its Run finished simply finds no shards left and
// returns. That keeps a saturated pool safe — a Run issued while every
// worker is busy on long tasks (e.g. portfolio SA chains) degrades to
// caller-inline execution instead of stalling behind them.
func (p *Pool) submit(fs []func()) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		panic("par: Run on closed Pool")
	}
	p.queue = append(p.queue, fs...)
	p.mu.Unlock()
	p.cond.Broadcast()
}

// NumCPU returns the worker count a default pool would use: the machine's
// logical CPU count. Exposed so flag defaults across the binaries agree.
func NumCPU() int { return runtime.NumCPU() }

// Close shuts down the workers; already-queued tasks are drained first.
// Calls to Run after Close panic. Close is idempotent and a nil pool
// ignores it.
func (p *Pool) Close() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
}

// Run executes f(shard) for every shard in [0, shards) across the pool's
// workers and returns when all have completed. Shards are claimed
// dynamically (an atomic counter) so uneven shard costs balance across
// workers; this is safe for determinism because shard outputs must be
// disjoint — claiming order affects only scheduling, never results.
//
// A nil pool or shards <= 1 degrades to an inline loop.
func (p *Pool) Run(shards int, f func(shard int)) {
	if p == nil || shards <= 1 {
		for s := 0; s < shards; s++ {
			f(s)
		}
		return
	}
	var next, completed atomic.Int64
	finished := make(chan struct{})
	loop := func() {
		for {
			s := int(next.Add(1)) - 1
			if s >= shards {
				return
			}
			f(s)
			if completed.Add(1) == int64(shards) {
				close(finished)
			}
		}
	}
	helpers := make([]func(), min(p.workers, shards)-1)
	for i := range helpers {
		helpers[i] = loop
	}
	p.submit(helpers)
	// The caller's goroutine participates too, so a pool of W workers
	// drives W-way parallelism without idling the caller. Run waits for
	// shard completion, not helper execution: helpers that never get a
	// worker (all busy elsewhere) are harmless no-ops, and the caller
	// finishes the shards itself.
	loop()
	<-finished
}

// ShardCount returns the number of shards to split n items into given a
// minimum grain size per shard. It is a pure function of the problem size
// (never of worker count or GOMAXPROCS) so that shard boundaries — and
// therefore floating-point merge order — are identical on every machine
// and at every thread count. The result is capped at MaxShards, which
// bounds per-shard buffer memory.
func ShardCount(n, grain int) int {
	if grain < 1 {
		grain = 1
	}
	s := (n + grain - 1) / grain
	if s < 1 {
		s = 1
	}
	if s > MaxShards {
		s = MaxShards
	}
	return s
}

// MaxShards caps ShardCount. Fixed (not derived from the machine) so shard
// partitioning is portable.
const MaxShards = 64

// ShardRange returns the half-open index range [lo, hi) owned by shard s
// of `shards` over n items. Ranges are contiguous, disjoint, cover [0, n),
// and depend only on (n, shards) — the fixed partition that deterministic
// in-order merges rely on. Sizes differ by at most one item.
func ShardRange(n, shards, s int) (lo, hi int) {
	q, r := n/shards, n%shards
	lo = s*q + min(s, r)
	hi = lo + q
	if s < r {
		hi++
	}
	return lo, hi
}
