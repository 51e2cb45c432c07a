package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/testcircuits"
)

func newTestServer(t *testing.T, cfg Config) (*Manager, *httptest.Server) {
	t.Helper()
	m := NewManager(cfg)
	ts := httptest.NewServer(NewServer(m, 0).Handler())
	t.Cleanup(func() {
		ts.Close()
		drain(t, m)
	})
	return m, ts
}

func postJob(t *testing.T, ts *httptest.Server, body string) (Status, *http.Response) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decoding submit response: %v", err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return st, resp
}

func getStatus(t *testing.T, ts *httptest.Server, id string) Status {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET status %s: %d %s", id, resp.StatusCode, b)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func pollDone(t *testing.T, ts *httptest.Server, id string) Status {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		st := getStatus(t, ts, id)
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestHTTPPlacementParity is the end-to-end acceptance check: a placement
// served over HTTP is byte-identical to what cmd/placer's direct pipeline
// produces for the same netlist, method, and seed.
func TestHTTPPlacementParity(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueCap: 8})
	st, resp := postJob(t, ts, `{"circuit":"Adder","method":"eplace-a","seed":42,"portfolio":1}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+st.ID {
		t.Errorf("Location %q does not match job %s", loc, st.ID)
	}
	final := pollDone(t, ts, st.ID)
	if final.State != StateDone {
		t.Fatalf("job ended %s: %s", final.State, final.Error)
	}

	// Fetch the result endpoint and compare against a direct solver run.
	res, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("result: %d %s", res.StatusCode, got)
	}

	c, err := testcircuits.ByName("Adder")
	if err != nil {
		t.Fatal(err)
	}
	direct, err := core.Place(c.Netlist, core.MethodEPlaceA, core.Options{Seed: 42, Portfolio: 1})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := c.Netlist.WritePlacementJSON(&want, direct.Placement); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("HTTP placement differs from direct placement at the same seed:\nhttp:   %.200s\ndirect: %.200s", got, want.Bytes())
	}
}

func TestHTTPSubmitInlineNetlist(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	c, _ := testcircuits.ByName("Adder")
	var nl bytes.Buffer
	if err := c.Netlist.WriteJSON(&nl); err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"netlist":%s,"method":"eplace-a","seed":7,"portfolio":1}`, nl.String())
	st, resp := postJob(t, ts, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	final := pollDone(t, ts, st.ID)
	if final.State != StateDone || !final.Result.Legal {
		t.Fatalf("inline-netlist job ended %s (legal=%v): %s", final.State, final.Result != nil && final.Result.Legal, final.Error)
	}
}

func TestHTTPErrorStatuses(t *testing.T) {
	entered := make(chan string, 8)
	release := make(chan struct{})
	defer close(release)
	m, ts := newTestServer(t, Config{Workers: 1, QueueCap: 1, Runner: blockingRunner(entered, release)})

	// 400: malformed and invalid bodies.
	for _, body := range []string{`{`, `{"bogus_field":1}`, `{"circuit":"NoSuch"}`, `{}`,
		`{"circuit":"Adder","portfolio":-1}`} {
		if _, resp := postJob(t, ts, body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}

	// 404: unknown job for every job endpoint.
	for _, path := range []string{"/v1/jobs/nope", "/v1/jobs/nope/result", "/v1/jobs/nope/events"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}

	// Occupy the worker and the single queue slot.
	running, resp := postJob(t, ts, `{"circuit":"Adder"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	<-entered
	if _, resp := postJob(t, ts, `{"circuit":"Adder"}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: %d", resp.StatusCode)
	}

	// 429: queue full.
	if _, resp := postJob(t, ts, `{"circuit":"Adder"}`); resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("saturated submit: status %d, want 429", resp.StatusCode)
	} else if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	// 409: result requested before completion.
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + running.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusConflict {
		t.Errorf("early result: status %d, want 409", resp2.StatusCode)
	}

	// 503: draining.
	go m.Drain(context.Background())
	waitDraining(t, m)
	if _, resp := postJob(t, ts, `{"circuit":"Adder"}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining submit: status %d, want 503", resp.StatusCode)
	}
}

func TestHTTPCancelMidSolve(t *testing.T) {
	entered := make(chan string, 8)
	release := make(chan struct{})
	defer close(release)
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 4, Runner: blockingRunner(entered, release)})

	st, resp := postJob(t, ts, `{"circuit":"Adder"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	<-entered // the job is mid-"solve"

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d", dresp.StatusCode)
	}
	final := pollDone(t, ts, st.ID)
	if final.State != StateCanceled {
		t.Errorf("job ended %s after DELETE, want canceled", final.State)
	}
}

// TestHTTPEventStream verifies live NDJSON delivery: a client subscribed
// while the job runs sees events as they are emitted and the stream closes
// when the job finishes.
func TestHTTPEventStream(t *testing.T) {
	entered := make(chan string, 8)
	release := make(chan struct{})
	emitting := func(ctx context.Context, spec *JobSpec, trc *obs.Tracer) (*JobResult, error) {
		sp := trc.StartSpan("fake-solve")
		trc.Gauge("pre_release", 1)
		entered <- spec.Netlist.Name
		select {
		case <-release:
		case <-ctx.Done():
			sp.End()
			return nil, ctx.Err()
		}
		trc.Gauge("post_release", 2)
		sp.End()
		return &JobResult{Legal: true, Placement: []byte("{}")}, nil
	}
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 4, Runner: emitting})

	st, resp := postJob(t, ts, `{"circuit":"Adder"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	<-entered

	eresp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer eresp.Body.Close()
	if ct := eresp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("events Content-Type %q", ct)
	}
	sc := bufio.NewScanner(eresp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)

	// The pre-subscription history (span_start, gauge) arrives first,
	// while the job is still blocked mid-run.
	var kinds []string
	readOne := func() {
		t.Helper()
		if !sc.Scan() {
			t.Fatalf("event stream ended early (%v) after %v", sc.Err(), kinds)
		}
		var ev obs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("non-JSON event line %q: %v", sc.Text(), err)
		}
		kinds = append(kinds, ev.Kind)
	}
	readOne() // span_start
	readOne() // gauge, delivered while the job is still running
	// Release the job: the rest of the stream (gauge, span_end, summary)
	// must arrive and the connection must close.
	close(release)
	for sc.Scan() {
		var ev obs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("non-JSON event line %q: %v", sc.Text(), err)
		}
		kinds = append(kinds, ev.Kind)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream error: %v", err)
	}
	joined := strings.Join(kinds, ",")
	for _, want := range []string{obs.KindSpanStart, obs.KindGauge, obs.KindSpanEnd, obs.KindSummary} {
		if !strings.Contains(joined, want) {
			t.Errorf("stream %s missing %q", joined, want)
		}
	}
	pollDone(t, ts, st.ID)
}

func TestHTTPHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 3, QueueCap: 5})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		Status  string `json:"status"`
		Workers int    `json:"workers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hz.Status != "ok" || hz.Workers != 3 {
		t.Errorf("healthz %+v", hz)
	}

	text := getMetrics(t, ts.URL+"/metrics")
	for _, want := range []string{"placerd_queue_cap 5\n", "placerd_workers 3\n"} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q:\n%s", want, text)
		}
	}
}

func TestHTTPBodyLimit(t *testing.T) {
	m := NewManager(Config{Workers: 1, QueueCap: 2})
	ts := httptest.NewServer(NewServer(m, 128).Handler())
	t.Cleanup(func() {
		ts.Close()
		drain(t, m)
	})
	big := `{"circuit":"Adder","method":"` + strings.Repeat("x", 200) + `"}`
	_, resp := postJob(t, ts, big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", resp.StatusCode)
	}
}
