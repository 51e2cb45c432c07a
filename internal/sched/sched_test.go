package sched

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func mustEnqueue(t *testing.T, q *Queue, tenant string, p Priority, cost float64, tag string) *Item {
	t.Helper()
	it := &Item{Tenant: tenant, Priority: p, Cost: cost, Payload: tag}
	if err := q.Enqueue(it); err != nil {
		t.Fatalf("enqueue %s: %v", tag, err)
	}
	return it
}

func popTags(t *testing.T, q *Queue, n int) []string {
	t.Helper()
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		it, ok := q.Pop()
		if !ok {
			t.Fatalf("queue closed after %d of %d pops", i, n)
		}
		out = append(out, it.Payload.(string))
	}
	return out
}

func wantOrder(t *testing.T, got, want []string) {
	t.Helper()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("dequeue order %v, want %v", got, want)
	}
}

// TestFairInterleavingVsFIFO pins the core fairness property: tenant A
// floods the queue first, tenant B arrives after — a FIFO would run all
// of A before any of B, the WFQ interleaves them deterministically.
func TestFairInterleavingVsFIFO(t *testing.T) {
	q := New(Config{Capacity: 16})
	for i := 1; i <= 3; i++ {
		mustEnqueue(t, q, "a", Interactive, 10, fmt.Sprintf("a%d", i))
	}
	for i := 1; i <= 3; i++ {
		mustEnqueue(t, q, "b", Interactive, 10, fmt.Sprintf("b%d", i))
	}
	wantOrder(t, popTags(t, q, 6), []string{"a1", "b1", "a2", "b2", "a3", "b3"})
}

// TestInverseSizeWeighting pins the "weight ∝ inverse circuit size" rule:
// a tenant of small circuits overtakes a tenant of big ones even when the
// big jobs were enqueued first.
func TestInverseSizeWeighting(t *testing.T) {
	q := New(Config{Capacity: 16})
	mustEnqueue(t, q, "big", Interactive, 100, "big1")
	mustEnqueue(t, q, "big", Interactive, 100, "big2")
	for i := 1; i <= 4; i++ {
		mustEnqueue(t, q, "small", Interactive, 10, fmt.Sprintf("s%d", i))
	}
	// big1: vfinish 156.25; small jobs: 1.5625 each, cumulative ≤ 6.25 —
	// all four small jobs clear before the first big one.
	wantOrder(t, popTags(t, q, 6), []string{"s1", "s2", "s3", "s4", "big1", "big2"})
}

// TestPriorityClasses: interactive jobs submitted after a batch backlog
// are still served first.
func TestPriorityClasses(t *testing.T) {
	q := New(Config{Capacity: 16})
	mustEnqueue(t, q, "t", Batch, 10, "batch1")
	mustEnqueue(t, q, "t", Batch, 10, "batch2")
	mustEnqueue(t, q, "u", Interactive, 10, "live1")
	wantOrder(t, popTags(t, q, 3), []string{"live1", "batch1", "batch2"})
}

func TestCapacityBackpressure(t *testing.T) {
	q := New(Config{Capacity: 2})
	mustEnqueue(t, q, "t", Interactive, 1, "j1")
	mustEnqueue(t, q, "t", Interactive, 1, "j2")
	err := q.Enqueue(&Item{Tenant: "t", Priority: Interactive, Cost: 1})
	var full *FullError
	if !errors.As(err, &full) || full.Capacity != 2 {
		t.Fatalf("over capacity: got %v, want *FullError{2}", err)
	}
	// A pop frees the slot.
	q.Pop()
	mustEnqueue(t, q, "t", Interactive, 1, "j3")
}

func TestTenantQuota(t *testing.T) {
	q := New(Config{Capacity: 16, TenantQuota: 2})
	a1 := mustEnqueue(t, q, "a", Interactive, 1, "a1")
	mustEnqueue(t, q, "a", Interactive, 1, "a2")

	err := q.Enqueue(&Item{Tenant: "a", Priority: Interactive, Cost: 1})
	var quota *QuotaError
	if !errors.As(err, &quota) || quota.Tenant != "a" || quota.Limit != 2 {
		t.Fatalf("over quota: got %v, want *QuotaError{a,2}", err)
	}
	// Another tenant is unaffected.
	mustEnqueue(t, q, "b", Interactive, 1, "b1")

	// Popping does NOT release quota (the job is now running)...
	it, _ := q.Pop()
	if it != a1 {
		t.Fatalf("popped %v, want a1", it.Payload)
	}
	if err := q.Enqueue(&Item{Tenant: "a", Priority: Interactive, Cost: 1}); !errors.As(err, &quota) {
		t.Fatalf("quota released by pop: %v", err)
	}
	// ...Done does.
	q.Done("a")
	mustEnqueue(t, q, "a", Interactive, 1, "a3")
}

// TestRemoveReleasesQuotaAndNeverRuns: removing a queued item frees its
// quota immediately and it is never handed to Pop.
func TestRemoveReleasesQuotaAndNeverRuns(t *testing.T) {
	q := New(Config{Capacity: 16, TenantQuota: 1})
	it := mustEnqueue(t, q, "a", Interactive, 1, "a1")
	if !q.Remove(it) {
		t.Fatal("Remove of queued item reported false")
	}
	if q.Remove(it) {
		t.Fatal("second Remove reported true")
	}
	// Quota free again immediately.
	a2 := mustEnqueue(t, q, "a", Interactive, 1, "a2")
	got, ok := q.Pop()
	if !ok || got != a2 {
		t.Fatalf("popped %v, want a2 (removed item must never surface)", got.Payload)
	}
	// A popped item cannot be removed.
	if q.Remove(a2) {
		t.Error("Remove of a popped item reported true")
	}
}

func TestCloseDrains(t *testing.T) {
	q := New(Config{Capacity: 8})
	mustEnqueue(t, q, "t", Interactive, 1, "j1")
	mustEnqueue(t, q, "t", Interactive, 1, "j2")
	q.Close()
	if err := q.Enqueue(&Item{Tenant: "t", Priority: Interactive, Cost: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("enqueue after close: %v, want ErrClosed", err)
	}
	wantOrder(t, popTags(t, q, 2), []string{"j1", "j2"})
	if it, ok := q.Pop(); ok {
		t.Fatalf("pop on drained closed queue returned %v", it.Payload)
	}
}

// TestPopBlocksUntilEnqueue: Pop parks while the queue is open and empty,
// and wakes on the next enqueue.
func TestPopBlocksUntilEnqueue(t *testing.T) {
	q := New(Config{Capacity: 4})
	got := make(chan string, 1)
	go func() {
		it, ok := q.Pop()
		if ok {
			got <- it.Payload.(string)
		}
	}()
	select {
	case tag := <-got:
		t.Fatalf("pop returned %q from an empty queue", tag)
	case <-time.After(20 * time.Millisecond):
	}
	mustEnqueue(t, q, "t", Interactive, 1, "wake")
	select {
	case tag := <-got:
		if tag != "wake" {
			t.Fatalf("popped %q", tag)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pop never woke after enqueue")
	}
}

func TestStats(t *testing.T) {
	q := New(Config{Capacity: 8, TenantQuota: 4})
	mustEnqueue(t, q, "a", Interactive, 1, "a1")
	mustEnqueue(t, q, "a", Batch, 1, "a2")
	mustEnqueue(t, q, "b", Interactive, 1, "b1")
	st := q.Stats()
	if st.Queued != 3 || st.ByPriority["interactive"] != 2 || st.ByPriority["batch"] != 1 {
		t.Errorf("stats %+v", st)
	}
	if st.Tenants["a"] != (TenantStat{Queued: 2, InFlight: 2}) {
		t.Errorf("tenant a stat %+v", st.Tenants["a"])
	}
	q.Pop()
	q.Pop()
	q.Pop()
	st = q.Stats()
	if st.Queued != 0 || st.Tenants["a"].InFlight != 2 || st.Tenants["a"].Queued != 0 {
		t.Errorf("post-pop stats %+v", st)
	}
	q.Done("a")
	if got := q.Stats().Tenants["a"].InFlight; got != 1 {
		t.Errorf("in-flight after Done = %d, want 1", got)
	}
}

func TestInvalidPriority(t *testing.T) {
	q := New(Config{Capacity: 4})
	if err := q.Enqueue(&Item{Tenant: "t", Priority: Priority(9)}); err == nil {
		t.Error("invalid priority accepted")
	}
	if _, err := ParsePriority("urgent"); err == nil {
		t.Error("unknown priority name accepted")
	}
	for s, want := range map[string]Priority{"": Interactive, "interactive": Interactive, "batch": Batch} {
		got, err := ParsePriority(s)
		if err != nil || got != want {
			t.Errorf("ParsePriority(%q) = %v, %v", s, got, err)
		}
	}
}

// TestConcurrentProducersConsumers is the race-detector workout: many
// producers, many consumers, with quota bookkeeping throughout.
func TestConcurrentProducersConsumers(t *testing.T) {
	q := New(Config{Capacity: 256, TenantQuota: 64})
	const producers, perProducer = 4, 32
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			tenant := fmt.Sprintf("t%d", p%2)
			for i := 0; i < perProducer; i++ {
				it := &Item{Tenant: tenant, Priority: Priority(i % 2), Cost: float64(1 + i%7), Payload: i}
				for q.Enqueue(it) != nil {
					time.Sleep(time.Millisecond) // quota/capacity backoff
				}
			}
		}(p)
	}
	var consumed sync.WaitGroup
	var count int64
	var countMu sync.Mutex
	for c := 0; c < 3; c++ {
		consumed.Add(1)
		go func() {
			defer consumed.Done()
			for {
				it, ok := q.Pop()
				if !ok {
					return
				}
				q.Done(it.Tenant)
				countMu.Lock()
				count++
				countMu.Unlock()
			}
		}()
	}
	wg.Wait()
	q.Close()
	consumed.Wait()
	if count != producers*perProducer {
		t.Errorf("consumed %d items, want %d", count, producers*perProducer)
	}
}
