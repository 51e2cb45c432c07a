package par

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunCoversAllShards checks every index runs exactly once at any
// thread count, and in index order when Run runs inline (threads <= 1).
func TestRunCoversAllShards(t *testing.T) {
	for _, threads := range []int{-1, 0, 1, 2, 8} {
		for _, shards := range []int{0, 1, 3, 17, 100} {
			hits := make([]atomic.Int32, shards)
			var order []int
			Run(threads, shards, func(s int) {
				hits[s].Add(1)
				if threads <= 1 {
					order = append(order, s)
				}
			})
			for s := range hits {
				if got := hits[s].Load(); got != 1 {
					t.Fatalf("threads=%d shards=%d: shard %d ran %d times", threads, shards, s, got)
				}
			}
			for i, s := range order {
				if s != i {
					t.Fatalf("threads=%d shards=%d: inline call %d ran shard %d", threads, shards, i, s)
				}
			}
		}
	}
}

// TestRunBoundsInFlight checks Run starts threads calls at once and no
// more: while they are all blocked no further call starts, and each
// release lets one more in.
func TestRunBoundsInFlight(t *testing.T) {
	const threads, n = 3, 20
	var inFlight, peak atomic.Int32
	started := make(chan int, n)
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		Run(threads, n, func(i int) {
			cur := inFlight.Add(1)
			for p := peak.Load(); cur > p && !peak.CompareAndSwap(p, cur); p = peak.Load() {
			}
			started <- i
			<-release
			inFlight.Add(-1)
		})
	}()
	for k := 0; k < threads; k++ {
		<-started
	}
	select {
	case i := <-started:
		t.Errorf("call %d started while %d calls were blocked", i, threads)
	case <-time.After(50 * time.Millisecond):
	}
	for k := 0; k < n; k++ {
		release <- struct{}{}
	}
	<-done
	if got := peak.Load(); got != threads {
		t.Errorf("peak in flight %d, want %d", got, threads)
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
// written by Run at the given thread count, merged in shard order.
func sumSharded(threads int, xs []float64) float64 {
	shards := ShardCount(len(xs), 32)
	partial := make([]float64, shards)
	Run(threads, shards, func(s int) {
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
// float reduction must be bit-identical at every thread count, including
// the inline one.
func TestDeterministicReduction(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	xs := make([]float64, 10_000)
	for i := range xs {
		xs[i] = rng.NormFloat64() * 1e3
	}
	want := sumSharded(1, xs)
	for _, threads := range []int{2, 3, 8, 16} {
		for rep := 0; rep < 20; rep++ {
			if got := sumSharded(threads, xs); got != want {
				t.Fatalf("threads=%d rep=%d: sum %.17g, want %.17g (non-deterministic merge)", threads, rep, got, want)
			}
		}
	}
}

func TestConcurrentRuns(t *testing.T) {
	var wg sync.WaitGroup
	var total atomic.Int64
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			Run(4, 40, func(s int) { total.Add(1) })
		}()
	}
	wg.Wait()
	if got := total.Load(); got != 6*40 {
		t.Fatalf("shards executed = %d, want %d", got, 6*40)
	}
}

// A Run issued while other Runs' calls are all blocked must still complete
// promptly: each Run bounds only its own calls. This is the liveness
// placerd relies on when its workers anneal several jobs' portfolio
// chains (minutes-long calls) at once.
func TestRunLiveUnderSaturation(t *testing.T) {
	release := make(chan struct{})
	var occupied sync.WaitGroup
	occupied.Add(4) // 2 Runs × 2 calls, each parked on release
	var pinned sync.WaitGroup
	for r := 0; r < 2; r++ {
		pinned.Add(1)
		go func() {
			defer pinned.Done()
			Run(2, 2, func(int) { occupied.Done(); <-release })
		}()
	}
	occupied.Wait() // both Runs now have every slot blocked

	done := make(chan struct{})
	go func() {
		var total atomic.Int64
		Run(2, 8, func(int) { total.Add(1) })
		if total.Load() == 8 {
			close(done)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run stalled behind other Runs' blocked calls")
	}
	close(release)
	pinned.Wait()
}
