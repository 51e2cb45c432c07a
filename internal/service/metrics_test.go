package service

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netio"
	"repro/internal/obs"
)

// outcomeRunner keys the job outcome on the request seed: 1 succeeds, 2
// fails, 3 blocks until canceled. Every run opens a "place" span so the
// manager's SpanSink has something to observe.
func outcomeRunner() Runner {
	return func(ctx context.Context, spec *JobSpec, trc *obs.Tracer) (*JobResult, error) {
		sp := trc.StartSpan("place")
		defer sp.End()
		switch spec.Req.Seed {
		case 2:
			return nil, errors.New("synthetic solver failure")
		case 3:
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return &JobResult{Legal: true, Placement: []byte("{}")}, nil
	}
}

// TestPrometheusScrapeMixedWorkload drives one job to each terminal state
// plus a rejected submission, then scrapes /metrics?format=prometheus and
// checks the exposition carries the latency histograms split into
// queue-wait and solve-time, outcome and rejection counters, and the live
// queue gauges — and that plain /metrics serves the same text.
func TestPrometheusScrapeMixedWorkload(t *testing.T) {
	m, ts := newTestServer(t, Config{Workers: 1, QueueCap: 4, Runner: outcomeRunner()})

	waitState(t, submitAdder(t, m, 1), StateDone)
	waitState(t, submitAdder(t, m, 2), StateFailed)
	blocked := submitAdder(t, m, 3)
	for blocked.Status().StartedAt == nil {
		time.Sleep(time.Millisecond)
	}
	if err := m.Cancel(blocked.ID()); err != nil {
		t.Fatal(err)
	}
	waitState(t, blocked, StateCanceled)
	if _, err := m.Submit(SubmitRequest{Circuit: "Adder", Method: "quantum"}); err == nil {
		t.Fatal("invalid method accepted")
	}

	text := getMetrics(t, ts.URL+"/metrics?format=prometheus")
	for _, want := range []string{
		`# TYPE placerd_job_queue_wait_seconds histogram`,
		`placerd_job_queue_wait_seconds_bucket{method="sa",priority="interactive",le="+Inf"} 3`,
		`# TYPE placerd_job_solve_seconds histogram`,
		`placerd_job_solve_seconds_count{method="sa",size="xs"} 3`,
		`placerd_stage_seconds_bucket{method="sa",size="xs",stage="place",le="+Inf"} 3`,
		`placerd_jobs_total{state="done"} 1`,
		`placerd_jobs_total{state="failed"} 1`,
		`placerd_jobs_total{state="canceled"} 1`,
		`placerd_jobs_rejected_total{reason="invalid"} 1`,
		`placerd_workers 1`,
		`placerd_queue_depth 0`,
		`placerd_running_jobs 0`,
		`placerd_worker_utilization 0`,
		`# TYPE placerd_uptime_seconds gauge`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n%s", want, text)
		}
	}

	// The query selects nothing: plain /metrics is the same view. Only the
	// uptime gauge moves between the two scrapes.
	if plain := getMetrics(t, ts.URL+"/metrics"); withoutUptime(plain) != withoutUptime(text) {
		t.Errorf("plain /metrics differs from ?format=prometheus:\n%s\nvs\n%s", plain, text)
	}
}

// getMetrics fetches a /metrics URL and checks it is the Prometheus text
// exposition.
func getMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("%s: Content-Type = %q", url, ct)
	}
	return string(body)
}

// withoutUptime drops the uptime sample from an exposition.
func withoutUptime(text string) string {
	var kept []string
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "placerd_uptime_seconds ") {
			kept = append(kept, line)
		}
	}
	return strings.Join(kept, "\n")
}

// scrape renders m's Prometheus exposition.
func scrape(t *testing.T, m *Manager) string {
	t.Helper()
	var sb strings.Builder
	if err := m.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// sample sums the exposition's samples of series: a full series such as
// placerd_jobs_total{state="done"} reads one line, a bare name sums the
// family's series. An absent series reads 0, because a series appears
// only on its first observation.
func sample(t *testing.T, text, series string) float64 {
	t.Helper()
	sum := 0.0
	for _, line := range strings.Split(text, "\n") {
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		if name := line[:i]; name != series && !strings.HasPrefix(name, series+"{") {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad sample line %q: %v", line, err)
		}
		sum += v
	}
	return sum
}

// TestQueueWaitInStatus checks the acceptance-to-start latency is exposed
// in the job status JSON once a job starts. The checked job queues behind
// a blocked one on the only worker, so it cannot start before the
// queued-state check.
func TestQueueWaitInStatus(t *testing.T) {
	entered := make(chan string, 1)
	release := make(chan struct{})
	m := NewManager(Config{Workers: 1, QueueCap: 4, Runner: blockingRunner(entered, release)})
	defer drain(t, m)
	submitAdder(t, m, 1) // blocks the worker until release
	<-entered
	j := submitAdder(t, m, 2)
	if st := j.Status(); st.QueueWaitSec != nil {
		t.Errorf("queued job already has queue_wait_sec %v", *st.QueueWaitSec)
	}
	close(release)
	<-entered
	st := j.Status()
	if st.QueueWaitSec == nil || *st.QueueWaitSec < 0 {
		t.Fatalf("started job queue_wait_sec = %v, want >= 0", st.QueueWaitSec)
	}
	waitState(t, j, StateDone)
	if st := j.Status(); st.QueueWaitSec == nil {
		t.Error("finished job lost queue_wait_sec")
	}
}

// TestNonFiniteGaugeKeepsMetricsEncodable checks a job whose solver
// reports +Inf and NaN gauges and counts still finishes, and that the
// counts reach the exposition as the finite values the tracer's summary
// holds: +Inf as the largest float64, NaN as 0.
func TestNonFiniteGaugeKeepsMetricsEncodable(t *testing.T) {
	runner := func(ctx context.Context, spec *JobSpec, trc *obs.Tracer) (*JobResult, error) {
		trc.Gauge("gp.final_hpwl", math.Inf(1))
		trc.Gauge("gp.final_overflow", math.NaN())
		trc.Count("gp.iterations", math.Inf(1))
		trc.Count("lp.pivots", math.NaN())
		return &JobResult{Legal: true, Placement: []byte("{}")}, nil
	}
	m := NewManager(Config{Workers: 1, QueueCap: 2, Runner: runner})
	defer drain(t, m)
	waitState(t, submitAdder(t, m, 1), StateDone)
	text := scrape(t, m)
	for _, want := range []string{
		`placer_solver_counter_total{method="sa",size="xs",counter="gp.iterations"} 1.7976931348623157e+308` + "\n",
		`placer_solver_counter_total{method="sa",size="xs",counter="lp.pivots"} 0` + "\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestExplicitThreadsReachCore checks a request that pins its thread count.
// The count reaches core, which runs up to that many SA chains at once, so
// a 4-chain SA job at threads 2 returns the bytes of core.Place at one
// thread. The manager exports no par_ series, and an eplace-a job's kernel
// timings reach placer_kernel_seconds through the SpanSink on its tracer.
// Under the race detector the SA leg, about a minute of annealing there,
// is left out; core's TestThreadCountByteIdentity covers the chain fan-out
// raced.
func TestExplicitThreadsReachCore(t *testing.T) {
	m := NewManager(Config{Workers: 1, QueueCap: 2, Threads: 1})
	defer drain(t, m)
	ep, err := m.Submit(SubmitRequest{Circuit: "Adder", Method: "eplace-a", Seed: 1, Portfolio: 1, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !raceEnabled {
		const circuit = "gen:4@1"
		sa, err := m.Submit(SubmitRequest{Circuit: circuit, Method: "sa", Seed: 7, Chains: 4, Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		n, _, err := netio.Load("", circuit)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Place(n, core.MethodSA, core.Options{Seed: 7, Threads: 1, Chains: 4})
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := n.WritePlacementJSON(&want, res.Placement); err != nil {
			t.Fatal(err)
		}
		waitState(t, sa, StateDone)
		if got := sa.Status().Result.Placement; !bytes.Equal(got, want.Bytes()) {
			t.Errorf("SA job at threads 2 differs from core.Place at one thread:\n%s\nwant\n%s", got, want.Bytes())
		}
	}
	waitState(t, ep, StateDone)

	text := scrape(t, m)
	kernel := `placer_kernel_seconds_count{method="eplace-a",size="xs",kernel="poisson_solve"} `
	if !strings.Contains(text, kernel) || strings.Contains(text, kernel+"0\n") {
		t.Errorf("exposition lacks a nonzero %q:\n%s", kernel, text)
	}
	if strings.Contains(text, "par_") {
		t.Errorf("exposition has par_ series:\n%s", text)
	}
}
