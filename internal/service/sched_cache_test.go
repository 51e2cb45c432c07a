package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

// tenantRunner reports each started job's tenant on entered, then blocks
// until one token arrives on release (or the context ends).
func tenantRunner(entered chan string, release chan struct{}) Runner {
	return func(ctx context.Context, spec *JobSpec, trc *obs.Tracer) (*JobResult, error) {
		entered <- spec.Req.Tenant
		select {
		case <-release:
			return &JobResult{Legal: true, Placement: []byte("{}")}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

func submitTenant(t *testing.T, m *Manager, tenant string, seed int64) *Job {
	t.Helper()
	j, err := m.Submit(SubmitRequest{Circuit: "Adder", Method: "sa", Seed: seed, Tenant: tenant})
	if err != nil {
		t.Fatalf("submit %s/%d: %v", tenant, seed, err)
	}
	return j
}

// TestTenantFairInterleaving pins the acceptance-criteria fairness
// property end to end: tenant A floods the queue before tenant B's jobs
// arrive, and the execution order still interleaves the two. A FIFO would
// run a,a,a,a then b,b — B starved behind A's backlog; the fair scheduler
// runs a,a,b,a,b,a. With one worker and equal-cost jobs the order is
// fully deterministic, so the test asserts it exactly.
func TestTenantFairInterleaving(t *testing.T) {
	entered := make(chan string, 8)
	release := make(chan struct{})
	m := NewManager(Config{Workers: 1, QueueCap: 16, Runner: tenantRunner(entered, release)})
	defer drain(t, m)

	jobs := []*Job{submitTenant(t, m, "a", 1)}
	order := []string{<-entered} // a's first job holds the only worker
	// A's backlog lands first, then B arrives.
	for seed := int64(2); seed <= 4; seed++ {
		jobs = append(jobs, submitTenant(t, m, "a", seed))
	}
	jobs = append(jobs, submitTenant(t, m, "b", 1), submitTenant(t, m, "b", 2))

	for i := 0; i < len(jobs); i++ {
		release <- struct{}{}
		if i < len(jobs)-1 {
			order = append(order, <-entered)
		}
	}
	for _, j := range jobs {
		waitState(t, j, StateDone)
	}
	want := "a,a,b,a,b,a"
	if got := strings.Join(order, ","); got != want {
		t.Errorf("execution order %s, want %s (FIFO would be a,a,a,a,b,b)", got, want)
	}
}

// seedRunner reports each started job's seed, then blocks until release
// closes.
func seedRunner(entered chan int64, release chan struct{}) Runner {
	return func(ctx context.Context, spec *JobSpec, trc *obs.Tracer) (*JobResult, error) {
		entered <- spec.Req.Seed
		select {
		case <-release:
			return &JobResult{Legal: true, Placement: []byte("{}")}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// TestCancelQueuedReleasesQuota: canceling a still-queued job frees the
// tenant's quota immediately, the scheduler drops it without ever handing
// it to a worker, and the counters reflect the cancelation.
func TestCancelQueuedReleasesQuota(t *testing.T) {
	entered := make(chan int64, 8)
	release := make(chan struct{})
	m := NewManager(Config{Workers: 1, QueueCap: 8, TenantQuota: 2, Runner: seedRunner(entered, release)})
	defer drain(t, m)

	running := submitTenant(t, m, "acme", 1)
	if got := <-entered; got != 1 {
		t.Fatalf("first started seed %d, want 1", got)
	}
	queued := submitTenant(t, m, "acme", 2) // quota now full: 1 running + 1 queued

	_, err := m.Submit(SubmitRequest{Circuit: "Adder", Method: "sa", Seed: 9, Tenant: "acme"})
	if !errors.Is(err, ErrTenantQuota) {
		t.Fatalf("over-quota submit: got %v, want ErrTenantQuota", err)
	}
	// Another tenant is not blocked by acme's quota.
	other := submitTenant(t, m, "zenith", 3)

	if err := m.Cancel(queued.ID()); err != nil {
		t.Fatal(err)
	}
	waitState(t, queued, StateCanceled)
	// The freed quota admits a new acme job immediately.
	refill := submitTenant(t, m, "acme", 4)

	close(release)
	for _, j := range []*Job{running, other, refill} {
		waitState(t, j, StateDone)
	}
	// The canceled job never reached the runner: only seeds 1, 3, 4 ran.
	close(entered)
	ran := map[int64]bool{1: true} // consumed above
	for s := range entered {
		ran[s] = true
	}
	if ran[2] || len(ran) != 3 {
		t.Errorf("runner saw seeds %v, want exactly {1,3,4}", ran)
	}

	text := scrape(t, m)
	if got := sample(t, text, `placerd_jobs_total{state="canceled"}`); got != 1 {
		t.Errorf("canceled counter %g, want 1", got)
	}
	if got := sample(t, text, `placerd_jobs_rejected_total{reason="tenant_quota"}`); got != 1 {
		t.Errorf("quota rejections %g, want 1 (the over-quota submit)", got)
	}
	for _, want := range []string{
		`placerd_tenant_inflight_jobs{tenant="acme"} 0` + "\n",
		`placerd_tenant_queue_depth{tenant="acme"} 0` + "\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q after completion:\n%s", want, text)
		}
	}
}

// TestCacheSkipsRunner: with caching on, a repeated submission is served
// from the cache without invoking the runner, byte-identical to the first
// result; a different key (seed) still solves.
func TestCacheSkipsRunner(t *testing.T) {
	var runs atomic.Int32
	runner := func(ctx context.Context, spec *JobSpec, trc *obs.Tracer) (*JobResult, error) {
		n := runs.Add(1)
		return &JobResult{
			Legal:     true,
			HPWLUM:    float64(100 * spec.Req.Seed),
			Placement: []byte(fmt.Sprintf(`{"run":%d,"seed":%d}`, n, spec.Req.Seed)),
		}, nil
	}
	m := NewManager(Config{Workers: 1, QueueCap: 8, CacheBytes: 1 << 20, Runner: runner})
	defer drain(t, m)

	first := submitAdder(t, m, 5)
	waitState(t, first, StateDone)
	if first.Status().Result.Cached {
		t.Error("first solve marked cached")
	}
	repeat := submitAdder(t, m, 5)
	waitState(t, repeat, StateDone)
	r1, r2 := first.Status().Result, repeat.Status().Result
	if !r2.Cached {
		t.Error("repeated submission not served from cache")
	}
	if !bytes.Equal(r1.Placement, r2.Placement) {
		t.Errorf("cache hit placement %s differs from original %s", r2.Placement, r1.Placement)
	}
	if r1.HPWLUM != r2.HPWLUM {
		t.Errorf("cache hit hpwl %g differs from original %g", r2.HPWLUM, r1.HPWLUM)
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("runner invoked %d times, want 1 (hit must skip the solver)", got)
	}

	// A different seed is a different content address.
	miss := submitAdder(t, m, 6)
	waitState(t, miss, StateDone)
	if miss.Status().Result.Cached {
		t.Error("different-seed submission served from cache")
	}
	if got := runs.Load(); got != 2 {
		t.Errorf("runner invoked %d times after new seed, want 2", got)
	}

	text := scrape(t, m)
	hits := sample(t, text, `placerd_cache_requests_total{result="hit"}`)
	misses := sample(t, text, `placerd_cache_requests_total{result="miss"}`)
	solves := sample(t, text, "placerd_job_solve_seconds_count")
	if hits != 1 || misses != 2 || solves != 2 {
		t.Errorf("hits=%g misses=%g solves=%g, want 1/2/2", hits, misses, solves)
	}
	if got := sample(t, text, "placerd_cache_entries"); got != 2 {
		t.Errorf("cache entries %g, want 2", got)
	}
}

// TestCacheDisabledNeverMarksCached pins the zero-config default: no
// cache, every submission solves.
func TestCacheDisabledNeverMarksCached(t *testing.T) {
	var runs atomic.Int32
	runner := func(ctx context.Context, spec *JobSpec, trc *obs.Tracer) (*JobResult, error) {
		runs.Add(1)
		return &JobResult{Legal: true, Placement: []byte("{}")}, nil
	}
	m := NewManager(Config{Workers: 1, QueueCap: 8, Runner: runner})
	defer drain(t, m)
	for i := 0; i < 2; i++ {
		j := submitAdder(t, m, 7)
		waitState(t, j, StateDone)
		if j.Status().Result.Cached {
			t.Error("cached result with caching disabled")
		}
	}
	if got := runs.Load(); got != 2 {
		t.Errorf("runner invoked %d times, want 2", got)
	}
	text := scrape(t, m)
	if strings.Contains(text, "placerd_cache_") || sample(t, text, "placerd_job_solve_seconds_count") != 2 {
		t.Errorf("exposition with caching disabled:\n%s", text)
	}
}

// TestCacheRealSolverByteIdentity is the acceptance pin: a cache hit is
// byte-identical to the fresh solve, through the real solver stack, and a
// request differing only in thread count hits the same entry.
func TestCacheRealSolverByteIdentity(t *testing.T) {
	m := NewManager(Config{Workers: 2, QueueCap: 8, CacheBytes: 64 << 20})
	defer drain(t, m)
	req := SubmitRequest{Circuit: "Adder", Method: "eplace-a", Seed: 42, Portfolio: 1}

	fresh, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, fresh, StateDone)

	hit, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, hit, StateDone)

	// Thread count must not be part of the content address: placements
	// are bit-identical at any thread count.
	threaded := req
	threaded.Threads = 2
	hit2, err := m.Submit(threaded)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, hit2, StateDone)

	r0 := fresh.Status().Result
	for name, r := range map[string]*JobResult{"identical request": hit.Status().Result, "threads=2 request": hit2.Status().Result} {
		if !r.Cached {
			t.Errorf("%s: not served from cache", name)
		}
		if !bytes.Equal(r.Placement, r0.Placement) {
			t.Errorf("%s: cached placement differs from the fresh solve", name)
		}
		if r.AreaUM2 != r0.AreaUM2 || r.HPWLUM != r0.HPWLUM || r.Legal != r0.Legal {
			t.Errorf("%s: cached quality numbers differ: %+v vs %+v", name, r, r0)
		}
	}
	text := scrape(t, m)
	solves, hits := sample(t, text, "placerd_job_solve_seconds_count"), sample(t, text, `placerd_cache_requests_total{result="hit"}`)
	if solves != 1 || hits != 2 {
		t.Errorf("solves=%g cache hits=%g, want 1 and 2", solves, hits)
	}
}

// TestCacheKeyRefineKnobs pins the content-address extension for the
// refinement stage: requests differing only in the chains / refine /
// refine_windows knobs produce different placements, so they must never
// collide in the cache — while the knobs' zero values keep the historical
// key so existing entries stay addressable.
func TestCacheKeyRefineKnobs(t *testing.T) {
	m := NewManager(Config{Workers: 1, QueueCap: 8})
	defer drain(t, m)

	keyFor := func(req SubmitRequest) string {
		t.Helper()
		spec, err := m.validate(req)
		if err != nil {
			t.Fatalf("validate %+v: %v", req, err)
		}
		return cacheKeyFor(spec).String()
	}

	base := SubmitRequest{Circuit: "Adder", Method: "sa", Seed: 5}
	variants := map[string]SubmitRequest{
		"chains=4":         {Circuit: "Adder", Method: "sa", Seed: 5, Chains: 4},
		"refine":           {Circuit: "Adder", Method: "sa", Seed: 5, Refine: true},
		"refine windows=3": {Circuit: "Adder", Method: "sa", Seed: 5, Refine: true, RefineWindows: 3},
		"refine windows=9": {Circuit: "Adder", Method: "sa", Seed: 5, Refine: true, RefineWindows: 9},
		"chains=4 refine":  {Circuit: "Adder", Method: "sa", Seed: 5, Chains: 4, Refine: true},
	}
	baseKey := keyFor(base)
	seen := map[string]string{baseKey: "base"}
	for name, req := range variants {
		k := keyFor(req)
		if prev, dup := seen[k]; dup {
			t.Errorf("%s: cache key collides with %s", name, prev)
		}
		seen[k] = name
	}

	// Knobs that do not change the bits stay out of the key.
	threaded := base
	threaded.Threads = 4
	if keyFor(threaded) != baseKey {
		t.Error("thread count leaked into the cache key")
	}
}

// TestHTTPStructuredBackpressure checks the 429 responses carry the
// machine-readable error body (reason, tenant, retry_after_sec) and the
// Retry-After header for both quota and capacity rejections.
func TestHTTPStructuredBackpressure(t *testing.T) {
	entered := make(chan string, 8)
	release := make(chan struct{})
	defer close(release)
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 1, TenantQuota: 1, Runner: tenantRunner(entered, release)})

	post := func(body string) (int, map[string]any, http.Header) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var payload map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
			t.Fatalf("non-JSON error body: %v", err)
		}
		return resp.StatusCode, payload, resp.Header
	}

	if code, _, _ := post(`{"circuit":"Adder","tenant":"acme"}`); code != http.StatusAccepted {
		t.Fatalf("first submit: %d", code)
	}
	<-entered // acme's job occupies the worker; its quota of 1 is spent

	code, body, hdr := post(`{"circuit":"Adder","tenant":"acme"}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: status %d, want 429", code)
	}
	if body["reason"] != "tenant_quota" || body["tenant"] != "acme" {
		t.Errorf("quota body %v, want reason=tenant_quota tenant=acme", body)
	}
	if body["retry_after_sec"] != float64(2) || hdr.Get("Retry-After") != "2" {
		t.Errorf("quota retry hints: body %v header %q", body["retry_after_sec"], hdr.Get("Retry-After"))
	}

	// Fill the single queue slot with another tenant, then overflow it.
	if code, _, _ := post(`{"circuit":"Adder","tenant":"zenith"}`); code != http.StatusAccepted {
		t.Fatalf("zenith submit: %d", code)
	}
	code, body, hdr = post(`{"circuit":"Adder","tenant":"other"}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit: status %d, want 429", code)
	}
	if body["reason"] != "queue_full" {
		t.Errorf("capacity body %v, want reason=queue_full", body)
	}
	if body["retry_after_sec"] != float64(1) || hdr.Get("Retry-After") != "1" {
		t.Errorf("capacity retry hints: body %v header %q", body["retry_after_sec"], hdr.Get("Retry-After"))
	}

	// Invalid submissions carry the reason slug too.
	if code, body, _ := post(`{"circuit":"Adder","priority":"urgent"}`); code != http.StatusBadRequest || body["reason"] != "invalid" {
		t.Errorf("invalid-priority submit: status %d body %v, want 400 reason=invalid", code, body)
	}
}
