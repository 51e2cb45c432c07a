package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// blockingRunner returns a Runner that reports each started job on entered
// and then blocks until release is closed or the job's context ends (in
// which case it returns the context error, mirroring the real solvers).
func blockingRunner(entered chan string, release chan struct{}) Runner {
	return func(ctx context.Context, spec *JobSpec, trc *obs.Tracer) (*JobResult, error) {
		if entered != nil {
			entered <- spec.Netlist.Name
		}
		select {
		case <-release:
			return &JobResult{Legal: true, Placement: []byte("{}")}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

func submitAdder(t *testing.T, m *Manager, seed int64) *Job {
	t.Helper()
	j, err := m.Submit(SubmitRequest{Circuit: "Adder", Method: "sa", Seed: seed})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	return j
}

func waitState(t *testing.T, j *Job, want State) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(2 * time.Minute): // generous: real solver runs are ~10x slower under -race
		t.Fatalf("job %s stuck in %s waiting for %s", j.ID(), j.Status().State, want)
	}
	if got := j.Status().State; got != want {
		t.Fatalf("job %s finished %s, want %s", j.ID(), got, want)
	}
}

func TestSubmitValidation(t *testing.T) {
	m := NewManager(Config{Workers: 1, QueueCap: 2})
	defer drain(t, m)
	cases := []struct {
		name string
		req  SubmitRequest
		want string
	}{
		{"neither source", SubmitRequest{}, "needs a netlist"},
		{"both sources", SubmitRequest{Circuit: "Adder", Netlist: []byte(`{}`)}, "both netlist and circuit"},
		{"bad method", SubmitRequest{Circuit: "Adder", Method: "quantum"}, "unknown method"},
		{"bad circuit", SubmitRequest{Circuit: "NoSuch"}, "unknown circuit"},
		{"bad netlist", SubmitRequest{Netlist: []byte(`{"name":"x","devices":[],"nets":[]}`)}, "no devices"},
		{"negative timeout", SubmitRequest{Circuit: "Adder", TimeoutSec: -1}, "negative timeout"},
		{"negative threads", SubmitRequest{Circuit: "Adder", Threads: -2}, "negative threads"},
		{"too many threads", SubmitRequest{Circuit: "Adder", Threads: 100000000}, "threads 100000000 exceeds the maximum 64"},
		{"negative chains", SubmitRequest{Circuit: "Adder", Chains: -1}, "negative chains -1"},
		{"too many chains", SubmitRequest{Circuit: "Adder", Chains: 1 << 30}, "chains 1073741824 exceeds the maximum 64"},
		{"negative portfolio", SubmitRequest{Circuit: "Adder", Portfolio: -1}, "negative portfolio -1"},
		{"too many portfolio", SubmitRequest{Circuit: "Adder", Portfolio: 65}, "portfolio 65 exceeds the maximum 64"},
		{"negative mu", SubmitRequest{Circuit: "Adder", Mu: -0.5}, "negative mu -0.5"},
		{"oversized gen", SubmitRequest{Circuit: "gen:16385@1"}, "over the 16384-device limit"},
	}
	for _, tc := range cases {
		_, err := m.Submit(tc.req)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q missing %q", tc.name, err, tc.want)
		}
	}
	if got := sample(t, scrape(t, m), `placerd_jobs_rejected_total{reason="invalid"}`); got != float64(len(cases)) {
		t.Errorf("rejected counter %g, want %d", got, len(cases))
	}
	// The largest generated circuit the limit admits validates; validate
	// is called directly so that no 16k-device job is queued.
	if _, err := m.validate(SubmitRequest{Circuit: "gen:16384@1"}); err != nil {
		t.Errorf("gen:16384@1: %v", err)
	}
}

// TestThreadsDefaultFill checks the manager's configured default thread
// count fills zero-valued requests while explicit values pass through.
func TestThreadsDefaultFill(t *testing.T) {
	m := NewManager(Config{Workers: 1, QueueCap: 2, Threads: 3})
	defer drain(t, m)
	spec, err := m.validate(SubmitRequest{Circuit: "Adder"})
	if err != nil {
		t.Fatal(err)
	}
	if spec.Req.Threads != 3 {
		t.Errorf("default fill: threads %d, want 3", spec.Req.Threads)
	}
	spec, err = m.validate(SubmitRequest{Circuit: "Adder", Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if spec.Req.Threads != 1 {
		t.Errorf("explicit: threads %d, want 1", spec.Req.Threads)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func drain(t testing.TB, m *Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	m.Abort()
	if err := m.Drain(ctx); err != nil {
		t.Errorf("drain: %v", err)
	}
}

func TestQueueSaturation(t *testing.T) {
	entered := make(chan string, 8)
	release := make(chan struct{})
	m := NewManager(Config{Workers: 1, QueueCap: 2, Runner: blockingRunner(entered, release)})

	running := submitAdder(t, m, 1)
	<-entered // the worker holds this job; the queue is empty again
	q1 := submitAdder(t, m, 2)
	q2 := submitAdder(t, m, 3)
	if _, err := m.Submit(SubmitRequest{Circuit: "Adder"}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("4th submission: got %v, want ErrQueueFull", err)
	}

	// Freeing the queue admits new work again.
	close(release)
	for _, j := range []*Job{running, q1, q2} {
		waitState(t, j, StateDone)
	}
	late, err := m.Submit(SubmitRequest{Circuit: "Adder", Method: "sa"})
	if err != nil {
		t.Fatalf("post-drain-of-queue submission: %v", err)
	}
	waitState(t, late, StateDone)

	text := scrape(t, m)
	done, rejected := sample(t, text, `placerd_jobs_total{state="done"}`), sample(t, text, "placerd_jobs_rejected_total")
	if done != 4 || rejected != 1 {
		t.Errorf("counters done=%g rejected=%g, want 4 and 1", done, rejected)
	}
	drain(t, m)
}

func TestCancelQueuedJob(t *testing.T) {
	entered := make(chan string, 8)
	release := make(chan struct{})
	m := NewManager(Config{Workers: 1, QueueCap: 4, Runner: blockingRunner(entered, release)})

	running := submitAdder(t, m, 1)
	<-entered
	queued := submitAdder(t, m, 2)
	if err := m.Cancel(queued.ID()); err != nil {
		t.Fatal(err)
	}
	waitState(t, queued, StateCanceled)
	// Cancel is idempotent on terminal jobs.
	if err := m.Cancel(queued.ID()); err != nil {
		t.Errorf("second cancel: %v", err)
	}
	close(release)
	waitState(t, running, StateDone)
	if got := sample(t, scrape(t, m), `placerd_jobs_total{state="canceled"}`); got != 1 {
		t.Errorf("canceled counter %g, want 1", got)
	}
	drain(t, m)
}

func TestCancelRunningJob(t *testing.T) {
	entered := make(chan string, 8)
	release := make(chan struct{})
	defer close(release)
	m := NewManager(Config{Workers: 1, QueueCap: 4, Runner: blockingRunner(entered, release)})

	j := submitAdder(t, m, 1)
	<-entered
	if err := m.Cancel(j.ID()); err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateCanceled)
	st := j.Status()
	if st.Result != nil {
		t.Error("canceled job carries a result")
	}
	if st.Error == "" {
		t.Error("canceled job has no error text")
	}
	drain(t, m)
}

func TestJobDeadline(t *testing.T) {
	m := NewManager(Config{Workers: 1, QueueCap: 4, Runner: blockingRunner(nil, nil)})
	j, err := m.Submit(SubmitRequest{Circuit: "Adder", TimeoutSec: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateFailed)
	if !contains(j.Status().Error, "deadline") {
		t.Errorf("error %q does not mention the deadline", j.Status().Error)
	}
	drain(t, m)
}

func TestDrainOrdering(t *testing.T) {
	entered := make(chan string, 8)
	release := make(chan struct{})
	m := NewManager(Config{Workers: 1, QueueCap: 4, Runner: blockingRunner(entered, release)})

	running := submitAdder(t, m, 1)
	<-entered
	queued := submitAdder(t, m, 2)

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- m.Drain(ctx)
	}()
	// Draining refuses new work immediately...
	waitDraining(t, m)
	if _, err := m.Submit(SubmitRequest{Circuit: "Adder"}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submission during drain: got %v, want ErrDraining", err)
	}
	// ...but both accepted jobs still complete before Drain returns.
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, j := range []*Job{running, queued} {
		if st := j.Status().State; st != StateDone {
			t.Errorf("job %s ended %s after drain, want done", j.ID(), st)
		}
	}
}

func waitDraining(t *testing.T, m *Manager) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !m.Health().Draining {
		if time.Now().After(deadline) {
			t.Fatal("manager never started draining")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDrainTimeoutThenAbort(t *testing.T) {
	entered := make(chan string, 8)
	release := make(chan struct{})
	defer close(release)
	m := NewManager(Config{Workers: 1, QueueCap: 4, Runner: blockingRunner(entered, release)})

	j := submitAdder(t, m, 1)
	<-entered
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := m.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain with stuck job: got %v, want deadline exceeded", err)
	}
	m.Abort()
	waitState(t, j, StateCanceled)
}

func TestConcurrentSubmissionsRealSolver(t *testing.T) {
	// The acceptance scenario: 8 concurrent submissions against a 2-worker
	// pool, all served by the real solver stack.
	m := NewManager(Config{Workers: 2, QueueCap: 16})
	defer drain(t, m)
	const n = 8
	jobs := make([]*Job, n)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, err := m.Submit(SubmitRequest{
				Circuit: "Adder", Method: "eplace-a", Seed: int64(i), Portfolio: 1,
			})
			jobs[i], errs[i] = j, err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
	}
	for i, j := range jobs {
		waitState(t, j, StateDone)
		st := j.Status()
		if st.Result == nil || !st.Result.Legal {
			t.Errorf("job %d: illegal or missing result", i)
		}
		if st.Events == 0 {
			t.Errorf("job %d: no solver events recorded", i)
		}
		if len(st.Result.Placement) == 0 {
			t.Errorf("job %d: empty placement payload", i)
		}
	}
	text := scrape(t, m)
	if got := sample(t, text, `placerd_jobs_total{state="done"}`); got != n {
		t.Errorf("done %g, want %d", got, n)
	}
	// Each one-candidate eplace-a job runs GP once, and its summary
	// reaches the registry before its Done channel closes.
	if got := sample(t, text, `placer_solver_counter_total{method="eplace-a",size="xs",counter="gp.runs"}`); got != n {
		t.Errorf("gp.runs %g, want %d:\n%s", got, n, text)
	}
	if got := sample(t, text, `placerd_stage_seconds_count{method="eplace-a",size="xs",stage="gp"}`); got != n {
		t.Errorf("gp stage count %g, want %d:\n%s", got, n, text)
	}
}

func TestJobIDsUniqueAndOrdered(t *testing.T) {
	entered := make(chan string, 16)
	release := make(chan struct{})
	m := NewManager(Config{Workers: 1, QueueCap: 8, Runner: blockingRunner(entered, release)})
	seen := map[string]bool{}
	for i := 0; i < 5; i++ {
		j := submitAdder(t, m, int64(i))
		if seen[j.ID()] {
			t.Fatalf("duplicate job ID %s", j.ID())
		}
		seen[j.ID()] = true
	}
	list := m.Jobs()
	if len(list) != 5 {
		t.Fatalf("listed %d jobs, want 5", len(list))
	}
	for i := 1; i < len(list); i++ {
		if list[i-1].ID() >= list[i].ID() {
			t.Errorf("listing out of submission order: %s before %s", list[i-1].ID(), list[i].ID())
		}
	}
	close(release)
	drain(t, m)
}

func TestFailedRunnerMarksJobFailed(t *testing.T) {
	boom := func(ctx context.Context, spec *JobSpec, trc *obs.Tracer) (*JobResult, error) {
		return nil, fmt.Errorf("solver exploded")
	}
	m := NewManager(Config{Workers: 1, QueueCap: 4, Runner: boom})
	j := submitAdder(t, m, 1)
	waitState(t, j, StateFailed)
	if !contains(j.Status().Error, "exploded") {
		t.Errorf("error %q lost the runner's message", j.Status().Error)
	}
	drain(t, m)
}
