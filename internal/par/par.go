// Package par provides the deterministic shard geometry of the placement
// kernels and Run, the bounded fan-out the SA portfolio chains run on.
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
// GP kernels run their shards inline, in shard order; Run runs
// coarse-grained independent tasks, the SA portfolio chains, whose results
// are reduced in task order.
package par

import "sync"

// Run calls f(i) for every i in [0, n), each on its own goroutine with at
// most threads calls in flight, and returns when all have returned.
// threads <= 1 calls them in index order on the caller's goroutine. The
// calls must write disjoint, index-addressed outputs; then the order in
// which they run changes scheduling, never results. Concurrent Run calls
// are independent: each bounds only its own calls, and Go's scheduler
// multiplexes them all onto GOMAXPROCS OS threads.
func Run(threads, n int, f func(i int)) {
	if threads <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	slots := make(chan struct{}, threads)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		slots <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer func() {
				<-slots
				wg.Done()
			}()
			f(i)
		}(i)
	}
	wg.Wait()
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
