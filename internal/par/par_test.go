package par

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestNewPoolSmallIsNil(t *testing.T) {
	for _, w := range []int{-1, 0, 1} {
		if p := NewPool(w); p != nil {
			t.Errorf("NewPool(%d) = %v, want nil (inline)", w, p)
		}
	}
}

func TestRunCoversAllShards(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		p := NewPool(workers)
		for _, shards := range []int{0, 1, 3, 17, 100} {
			hits := make([]atomic.Int32, shards)
			p.Run(shards, func(s int) { hits[s].Add(1) })
			for s := range hits {
				if got := hits[s].Load(); got != 1 {
					t.Fatalf("workers=%d shards=%d: shard %d ran %d times", workers, shards, s, got)
				}
			}
		}
		p.Close()
	}
}

func TestShardRangePartitions(t *testing.T) {
	for _, n := range []int{1, 7, 64, 1000} {
		for _, shards := range []int{1, 3, 7, 64} {
			if shards > n {
				continue
			}
			next := 0
			for s := 0; s < shards; s++ {
				lo, hi := ShardRange(n, shards, s)
				if lo != next {
					t.Fatalf("n=%d shards=%d: shard %d starts at %d, want %d", n, shards, s, lo, next)
				}
				if hi <= lo {
					t.Fatalf("n=%d shards=%d: shard %d empty [%d,%d)", n, shards, s, lo, hi)
				}
				if hi-lo > n/shards+1 {
					t.Fatalf("n=%d shards=%d: shard %d oversize [%d,%d)", n, shards, s, lo, hi)
				}
				next = hi
			}
			if next != n {
				t.Fatalf("n=%d shards=%d: coverage ends at %d", n, shards, next)
			}
		}
	}
}

func TestShardCountPureAndBounded(t *testing.T) {
	if got := ShardCount(0, 64); got != 1 {
		t.Errorf("ShardCount(0) = %d, want 1", got)
	}
	if got := ShardCount(100, 64); got != 2 {
		t.Errorf("ShardCount(100, 64) = %d, want 2", got)
	}
	if got := ShardCount(1<<30, 1); got != MaxShards {
		t.Errorf("ShardCount(big) = %d, want cap %d", got, MaxShards)
	}
	if got := ShardCount(10, 0); got != 10 {
		t.Errorf("ShardCount(10, 0) = %d, want 10 (grain clamped to 1)", got)
	}
}

// sumSharded reduces xs with the canonical pattern: per-shard partials
// written on the pool, merged in shard order.
func sumSharded(p *Pool, xs []float64) float64 {
	shards := ShardCount(len(xs), 32)
	partial := make([]float64, shards)
	p.Run(shards, func(s int) {
		lo, hi := ShardRange(len(xs), shards, s)
		acc := 0.0
		for i := lo; i < hi; i++ {
			acc += xs[i]
		}
		partial[s] = acc
	})
	total := 0.0
	for _, v := range partial {
		total += v
	}
	return total
}

// TestDeterministicReduction is the package's reason to exist: the sharded
// float reduction must be bit-identical across pool sizes, including the
// nil (inline) pool.
func TestDeterministicReduction(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	xs := make([]float64, 10_000)
	for i := range xs {
		xs[i] = rng.NormFloat64() * 1e3
	}
	var nilPool *Pool
	want := sumSharded(nilPool, xs)
	for _, workers := range []int{2, 3, 8, 16} {
		p := NewPool(workers)
		for rep := 0; rep < 20; rep++ {
			if got := sumSharded(p, xs); got != want {
				t.Fatalf("workers=%d rep=%d: sum %.17g, want %.17g (non-deterministic merge)", workers, rep, got, want)
			}
		}
		p.Close()
	}
}

func TestConcurrentRuns(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var wg sync.WaitGroup
	var total atomic.Int64
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Run(40, func(s int) { total.Add(1) })
		}()
	}
	wg.Wait()
	if got := total.Load(); got != 6*40 {
		t.Fatalf("shards executed = %d, want %d", got, 6*40)
	}
}

// A Run issued while every worker is pinned by long tasks must still
// complete promptly: submission never blocks, and the caller executes the
// shards inline when no worker frees up. This is the liveness contract the
// shared placerd pool relies on once portfolio SA chains (minutes-long
// tasks) share it with fine-grained kernels.
func TestRunLiveUnderSaturation(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	release := make(chan struct{})
	var occupied sync.WaitGroup
	occupied.Add(4) // 2 Runs × 2 shards, each parked on release
	var pinned sync.WaitGroup
	pinned.Add(1)
	go func() {
		defer pinned.Done()
		// Two long shards pin both workers... except the caller of this
		// Run takes one of them itself, so exactly one pool worker is
		// occupied per long shard — run two concurrent Runs to pin both.
		p.Run(2, func(int) { occupied.Done(); <-release })
	}()
	pinned.Add(1)
	go func() {
		defer pinned.Done()
		p.Run(2, func(int) { occupied.Done(); <-release })
	}()
	occupied.Wait() // both workers (and both callers) now blocked

	done := make(chan struct{})
	go func() {
		var total atomic.Int64
		p.Run(8, func(int) { total.Add(1) })
		if total.Load() == 8 {
			close(done)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run stalled behind saturated workers")
	}
	close(release)
	pinned.Wait()
}

func TestCloseIdempotentAndNilSafe(t *testing.T) {
	var nilPool *Pool
	nilPool.Close() // must not panic
	nilPool.Run(3, func(int) {})
	p := NewPool(2)
	p.Close()
	p.Close() // second Close must not panic
}

func TestRunAfterClosePanics(t *testing.T) {
	p := NewPool(2)
	p.Close()
	defer func() {
		if recover() == nil {
			t.Error("Run on closed pool did not panic")
		}
	}()
	p.Run(4, func(int) {})
}
