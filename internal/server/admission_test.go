package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"fastsc/internal/compile"
	"fastsc/internal/core"
)

// mustGrant reserves a ticket that must take a free slot immediately.
func mustGrant(t *testing.T, a *admitter, prio int) *ticket {
	t.Helper()
	tkt, err := a.reserve(prio, time.Time{})
	if err != nil {
		t.Fatalf("reserve: %v", err)
	}
	if err := tkt.wait(context.Background()); err != nil {
		t.Fatalf("wait: %v", err)
	}
	return tkt
}

func TestAdmitterGrantsByPriorityThenFIFO(t *testing.T) {
	a := newAdmitter(1, 4)
	holder := mustGrant(t, a, DefaultPriority)

	reserve := func(prio int) *ticket {
		tkt, err := a.reserve(prio, time.Time{})
		if err != nil {
			t.Fatalf("reserve prio %d: %v", prio, err)
		}
		return tkt
	}
	low, hiA, hiB := reserve(1), reserve(7), reserve(7)

	order := make(chan string, 3)
	waiter := func(name string, tkt *ticket) {
		if err := tkt.wait(context.Background()); err != nil {
			t.Errorf("%s: wait = %v", name, err)
			return
		}
		order <- name
		tkt.release()
	}
	go waiter("low", low)
	go waiter("hiA", hiA)
	go waiter("hiB", hiB)

	time.Sleep(10 * time.Millisecond) // let the waiters block
	holder.release()
	got := []string{<-order, <-order, <-order}
	// Priority first; FIFO within a priority class.
	want := []string{"hiA", "hiB", "low"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grant order = %v, want %v", got, want)
		}
	}
}

func TestAdmitterShedsLowestPriority(t *testing.T) {
	a := newAdmitter(1, 1)
	holder := mustGrant(t, a, DefaultPriority)
	defer holder.release()

	victim, err := a.reserve(3, time.Time{})
	if err != nil {
		t.Fatalf("reserve victim: %v", err)
	}
	// Equal priority must NOT displace the victim: the queue is full.
	if _, err := a.reserve(3, time.Time{}); !errors.Is(err, errQueueFull) {
		t.Fatalf("equal-priority reserve = %v, want errQueueFull", err)
	}
	// Strictly higher priority does.
	bumper, err := a.reserve(7, time.Time{})
	if err != nil {
		t.Fatalf("higher-priority reserve = %v, want shed of the victim", err)
	}
	if err := victim.wait(context.Background()); !errors.Is(err, ErrShed) {
		t.Fatalf("victim wait = %v, want ErrShed", err)
	}
	// The bumper occupies the queue; lower-priority arrivals bounce.
	if _, err := a.reserve(1, time.Time{}); !errors.Is(err, errQueueFull) {
		t.Fatalf("low-priority reserve = %v, want errQueueFull", err)
	}
	_ = bumper
}

func TestAdmitterShedsExpiredFirst(t *testing.T) {
	a := newAdmitter(1, 1)
	holder := mustGrant(t, a, DefaultPriority)
	defer holder.release()

	// The queued waiter has the HIGHER priority but an already-passed
	// deadline: it is dead weight and is shed even for a lower-priority
	// arrival, with the deadline (not shed) cause.
	expired, err := a.reserve(9, time.Now().Add(-time.Second))
	if err != nil {
		t.Fatalf("reserve expired: %v", err)
	}
	if _, err := a.reserve(0, time.Time{}); err != nil {
		t.Fatalf("arrival = %v, want expired waiter shed", err)
	}
	if err := expired.wait(context.Background()); !errors.Is(err, compile.ErrDeadline) {
		t.Fatalf("expired wait = %v, want compile.ErrDeadline", err)
	}
}

func TestAdmitterCanceledWaiterLeavesQueue(t *testing.T) {
	a := newAdmitter(1, 2)
	holder := mustGrant(t, a, DefaultPriority)

	tkt, err := a.reserve(DefaultPriority, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	cause := errors.New("client gave up")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	if err := tkt.wait(ctx); !errors.Is(err, cause) {
		t.Fatalf("wait = %v, want the cancel cause", err)
	}
	if d := a.depth(); d != 0 {
		t.Fatalf("queue depth after canceled waiter = %d, want 0", d)
	}
	// The abandoned reservation must not leak the slot accounting: the
	// holder's release leaves a grantable slot.
	holder.release()
	next := mustGrant(t, a, DefaultPriority)
	next.release()
}

// TestAdmitterExpiredNeverHoldsSlot: a waiter whose deadline passes while
// queued is shed at grant time instead of being handed a slot, so expired
// work cannot occupy workers (under -race this also exercises the
// grant/shed interleaving).
func TestAdmitterExpiredNeverHoldsSlot(t *testing.T) {
	a := newAdmitter(1, 2)
	holder := mustGrant(t, a, DefaultPriority)

	expired, err := a.reserve(9, time.Now().Add(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	live, err := a.reserve(0, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let the first waiter's deadline pass
	holder.release()
	if err := live.wait(context.Background()); err != nil {
		t.Fatalf("live waiter = %v, want the slot", err)
	}
	live.release()
	if err := expired.wait(context.Background()); !errors.Is(err, compile.ErrDeadline) {
		t.Fatalf("expired waiter = %v, want compile.ErrDeadline", err)
	}
}

func TestPriorityAndDeadlineValidation(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		name   string
		mutate func(*CompileRequest)
	}{
		{"priority too high", func(r *CompileRequest) { p := 10; r.Priority = &p }},
		{"priority negative", func(r *CompileRequest) { p := -1; r.Priority = &p }},
		{"negative deadline", func(r *CompileRequest) { r.DeadlineMS = -5 }},
		{"deadline overflows time.Duration", func(r *CompileRequest) { r.DeadlineMS = math.MaxInt64/int64(time.Millisecond) + 1 }},
	} {
		req := testRequest(core.ColorDynamic)
		tc.mutate(&req)
		if code, body := postJSON(t, ts, "/v1/batches", req); code != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", tc.name, code, body)
		}
	}
}

// TestQueueFullRetryAfter: a 429 carries a Retry-After hint derived from
// queue depth and the batch-duration EWMA, always at least one second.
func TestQueueFullRetryAfter(t *testing.T) {
	srv := New(Config{MaxConcurrent: 1, MaxQueue: -1})
	gate := make(chan struct{})
	defer close(gate)
	srv.startGate = func() { <-gate }
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, _ := postJSON(t, ts, "/v1/batches", testRequest(core.ColorDynamic))
	if code != http.StatusAccepted {
		t.Fatalf("first submit: %d", code)
	}
	raw := `{"device":{"topology":"linear","qubits":4},"jobs":[{"qasm":` + strconv.Quote(testQASM) + `}]}`
	resp, err := ts.Client().Post(ts.URL+"/v1/batches", "application/json", strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("second submit: %d (%s), want 429", resp.StatusCode, body)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 || ra > 120 {
		t.Fatalf("Retry-After = %q, want an integer in [1, 120]", resp.Header.Get("Retry-After"))
	}
}

// TestDeadlineExpiredBatchReleasesAdmission: an async batch whose deadline
// passes while it waits for a slot terminates as "expired" with typed
// not-started job errors, and the slot accounting stays intact — the next
// submission still runs. Run under -race this is the deadline-path
// regression test the issue calls for.
func TestDeadlineExpiredBatchReleasesAdmission(t *testing.T) {
	srv := New(Config{MaxConcurrent: 1})
	gate := make(chan struct{})
	srv.startGate = func() { <-gate }
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, _ := postJSON(t, ts, "/v1/batches", testRequest(core.ColorDynamic))
	if code != http.StatusAccepted {
		t.Fatalf("holder submit: %d", code)
	}

	req := testRequest(core.ColorDynamic)
	req.DeadlineMS = 30 // expires while queued behind the gated holder
	code, body := postJSON(t, ts, "/v1/batches", req)
	if code != http.StatusAccepted {
		t.Fatalf("deadline submit: %d (%s)", code, body)
	}
	var ack SubmitResponse
	mustUnmarshal(t, body, &ack)

	st := pollUntilTerminal(t, ts, ack.URL)
	if st.Status != "expired" {
		t.Fatalf("status = %q, want expired", st.Status)
	}
	if st.Failed != st.Jobs || len(st.Results) != st.Jobs {
		t.Fatalf("expired batch results: %+v", st)
	}
	for _, r := range st.Results {
		if r.Type != "error" || !strings.Contains(r.Error, "deadline") {
			t.Fatalf("expired job line = %+v, want a typed deadline error", r)
		}
	}

	close(gate) // release the holder; the slot must be reusable
	code, body = postJSON(t, ts, "/v1/batches", testRequest(core.ColorDynamic))
	if code != http.StatusAccepted {
		t.Fatalf("post-expiry submit: %d (%s)", code, body)
	}
	mustUnmarshal(t, body, &ack)
	if st := pollUntilTerminal(t, ts, ack.URL); st.Status != "done" || st.Failed != 0 {
		t.Fatalf("post-expiry batch: %+v", st)
	}

	// The expiry is visible on /metrics.
	if !metricAtLeast(t, ts, "fastscd_batches_expired_total", 1) {
		t.Error("fastscd_batches_expired_total not incremented")
	}
}

// pollUntilTerminal polls a batch until it reaches any terminal status.
func pollUntilTerminal(t *testing.T, ts *httptest.Server, url string) BatchStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st BatchStatus
		if code := getJSON(t, ts, url, &st); code != http.StatusOK {
			t.Fatalf("poll %s: status %d", url, code)
		}
		switch st.Status {
		case "queued", "running":
		default:
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("poll %s: still %q after 30s", url, st.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func mustUnmarshal(t *testing.T, data []byte, into any) {
	t.Helper()
	if err := json.Unmarshal(data, into); err != nil {
		t.Fatalf("unmarshal %q: %v", data, err)
	}
}

// metricAtLeast scrapes /metrics and reports whether the named sample is
// at least want.
func metricAtLeast(t *testing.T, ts *httptest.Server, name string, want int) bool {
	t.Helper()
	for _, line := range strings.Split(metricsText(t, ts), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == name {
			n, err := strconv.Atoi(fields[1])
			return err == nil && n >= want
		}
	}
	return false
}
