package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fastsc/internal/compile"
	"fastsc/internal/core"
)

const testQASM = `OPENQASM 2.0;
include "qelib1.inc";
qreg q[4];
h q[0];
h q[2];
cz q[0],q[1];
cz q[2],q[3];
cz q[1],q[2];
rz(pi/2) q[3];
`

// testRequest builds a small linear-chain batch, one job per strategy.
func testRequest(strategies ...string) CompileRequest {
	req := CompileRequest{
		Device: DeviceSpec{Topology: "linear", Qubits: 4},
	}
	for i, strat := range strategies {
		req.Jobs = append(req.Jobs, JobSpec{
			ID:       fmt.Sprintf("j%d", i),
			Strategy: strat,
			QASM:     testQASM,
		})
	}
	return req
}

func postJSON(t *testing.T, ts *httptest.Server, path string, body any) (int, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, data
}

func getJSON(t *testing.T, ts *httptest.Server, path string, into any) int {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if into != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, into); err != nil {
			t.Fatalf("GET %s: decode %q: %v", path, data, err)
		}
	}
	return resp.StatusCode
}

// doStream posts a streaming compile and parses the NDJSON response.
func doStream(t *testing.T, ts *httptest.Server, req CompileRequest) ([]ResultLine, DoneLine) {
	t.Helper()
	raw, _ := json.Marshal(req)
	resp, err := ts.Client().Post(ts.URL+"/v1/compile", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST /v1/compile: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /v1/compile: status %d: %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}
	var (
		results []ResultLine
		done    DoneLine
		sawDone bool
	)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		var header struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(line, &header); err != nil {
			t.Fatalf("bad stream line %q: %v", line, err)
		}
		switch header.Type {
		case "result", "error":
			var rl ResultLine
			if err := json.Unmarshal(line, &rl); err != nil {
				t.Fatalf("bad result line %q: %v", line, err)
			}
			if sawDone {
				t.Fatalf("result line after done line: %q", line)
			}
			results = append(results, rl)
		case "done":
			if err := json.Unmarshal(line, &done); err != nil {
				t.Fatalf("bad done line %q: %v", line, err)
			}
			sawDone = true
		default:
			t.Fatalf("unknown line type %q in %q", header.Type, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	if !sawDone {
		t.Fatalf("stream ended without a done line")
	}
	return results, done
}

// pollUntilDone polls an async batch until it reports done.
func pollUntilDone(t *testing.T, ts *httptest.Server, url string) BatchStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st BatchStatus
		if code := getJSON(t, ts, url, &st); code != http.StatusOK {
			t.Fatalf("poll %s: status %d", url, code)
		}
		if st.Status == "done" {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("poll %s: still %q after 30s", url, st.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestCompileStream(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := testRequest(core.ColorDynamic, "Baseline N")
	results, done := doStream(t, ts, req)

	if len(results) != 2 {
		t.Fatalf("got %d result lines, want 2", len(results))
	}
	seen := map[string]bool{}
	for _, rl := range results {
		if rl.Type != "result" {
			t.Fatalf("job %s: type %q, error %q", rl.ID, rl.Type, rl.Error)
		}
		if rl.Result == nil {
			t.Fatalf("job %s: result type without result payload", rl.ID)
		}
		if rl.Result.Success <= 0 || rl.Result.Success > 1 {
			t.Errorf("job %s: success = %v, want (0, 1]", rl.ID, rl.Result.Success)
		}
		if rl.Result.Depth <= 0 {
			t.Errorf("job %s: depth = %d, want > 0", rl.ID, rl.Result.Depth)
		}
		if len(rl.Result.Slices) != 0 {
			t.Errorf("job %s: %d slices on a non-verbose request", rl.ID, len(rl.Result.Slices))
		}
		seen[rl.ID] = true
	}
	if !seen["j0"] || !seen["j1"] {
		t.Errorf("missing job IDs in %v", seen)
	}
	if done.Jobs != 2 || done.Failed != 0 {
		t.Errorf("done = %+v, want jobs 2 failed 0", done)
	}
	if done.Cache == nil || done.Cache.Misses == 0 {
		t.Errorf("first request should report cache misses, got %+v", done.Cache)
	}

	// An identical repeat request is served almost entirely from cache.
	_, done2 := doStream(t, ts, req)
	if done2.Cache == nil || done2.Cache.HitRate < 0.9 {
		t.Errorf("repeat request hit rate = %+v, want > 0.9", done2.Cache)
	}
}

func TestCompileStreamVerbose(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := testRequest(core.ColorDynamic)
	req.Verbose = true
	results, _ := doStream(t, ts, req)
	if len(results) != 1 || results[0].Result == nil {
		t.Fatalf("unexpected results %+v", results)
	}
	if len(results[0].Result.Slices) == 0 {
		t.Fatalf("verbose request returned no slices")
	}
	twoQubit := false
	for _, sl := range results[0].Result.Slices {
		for _, g := range sl.Gates {
			if g.Freq != 0 {
				twoQubit = true
			}
		}
	}
	if !twoQubit {
		t.Errorf("no two-qubit gate carried an interaction frequency")
	}
}

func TestNativeCircuit(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := CompileRequest{
		Device: DeviceSpec{Topology: "linear", Qubits: 3},
		Jobs: []JobSpec{{
			Circuit: &CircuitSpec{
				Qubits: 3,
				Gates: []GateSpec{
					{Op: "h", Qubits: []int{0}},
					{Op: "cz", Qubits: []int{0, 1}},
					{Op: "rz", Qubits: []int{1}, Theta: 1.5708},
					{Op: "cz", Qubits: []int{1, 2}},
				},
			},
		}},
	}
	results, done := doStream(t, ts, req)
	if len(results) != 1 || results[0].Type != "result" {
		t.Fatalf("results = %+v", results)
	}
	if results[0].ID != "job-0" {
		t.Errorf("default job ID = %q, want job-0", results[0].ID)
	}
	if results[0].Strategy != core.ColorDynamic {
		t.Errorf("default strategy = %q, want %q", results[0].Strategy, core.ColorDynamic)
	}
	if done.Failed != 0 {
		t.Errorf("done = %+v", done)
	}
}

func TestSubmitAndPoll(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, body := postJSON(t, ts, "/v1/batches", testRequest(core.ColorDynamic, "Baseline U"))
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", code, body)
	}
	var ack SubmitResponse
	if err := json.Unmarshal(body, &ack); err != nil {
		t.Fatalf("submit ack: %v", err)
	}
	if ack.Jobs != 2 || ack.URL == "" {
		t.Fatalf("ack = %+v", ack)
	}

	st := pollUntilDone(t, ts, ack.URL)
	if st.Completed != 2 || st.Failed != 0 || len(st.Results) != 2 {
		t.Fatalf("final status = %+v", st)
	}
	if st.Cache == nil {
		t.Fatalf("final status carries no cache report")
	}
	for _, rl := range st.Results {
		if rl.Type != "result" || rl.Result == nil {
			t.Errorf("job %s: %+v", rl.ID, rl)
		}
	}
}

func TestValidationErrors(t *testing.T) {
	srv := New(Config{MaxJobs: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	qasmJob := func(src string) []JobSpec { return []JobSpec{{QASM: src}} }
	cases := []struct {
		name string
		req  CompileRequest
		want string
	}{
		{"no jobs", CompileRequest{Device: DeviceSpec{Topology: "linear", Qubits: 4}}, "no jobs"},
		{"too many jobs", CompileRequest{
			Device: DeviceSpec{Topology: "linear", Qubits: 4},
			Jobs:   []JobSpec{{QASM: testQASM}, {QASM: testQASM}, {QASM: testQASM}},
		}, "limit is 2"},
		{"bad topology", CompileRequest{
			Device: DeviceSpec{Topology: "moebius", Qubits: 4}, Jobs: qasmJob(testQASM),
		}, "moebius"},
		{"non-square grid", CompileRequest{
			Device: DeviceSpec{Topology: "grid", Qubits: 5}, Jobs: qasmJob(testQASM),
		}, "square"},
		{"bad strategy", CompileRequest{
			Device: DeviceSpec{Topology: "linear", Qubits: 4},
			Jobs:   []JobSpec{{QASM: testQASM, Strategy: "Baseline Q"}},
		}, "unknown strategy"},
		{"malformed qasm", CompileRequest{
			Device: DeviceSpec{Topology: "linear", Qubits: 4},
			Jobs:   qasmJob("OPENQASM 2.0;\nqreg q[4];\nfrobnicate q[0];\n"),
		}, "frobnicate"},
		{"qasm without qreg", CompileRequest{
			Device: DeviceSpec{Topology: "linear", Qubits: 4},
			Jobs:   qasmJob("OPENQASM 2.0;\nh q[0];\n"),
		}, "qreg"},
		{"circuit too wide", CompileRequest{
			Device: DeviceSpec{Topology: "linear", Qubits: 2},
			Jobs:   qasmJob(testQASM),
		}, "device has 2"},
		{"both forms", CompileRequest{
			Device: DeviceSpec{Topology: "linear", Qubits: 4},
			Jobs: []JobSpec{{QASM: testQASM, Circuit: &CircuitSpec{
				Qubits: 2, Gates: []GateSpec{{Op: "h", Qubits: []int{0}}},
			}}},
		}, "exactly one"},
		{"neither form", CompileRequest{
			Device: DeviceSpec{Topology: "linear", Qubits: 4},
			Jobs:   []JobSpec{{ID: "empty"}},
		}, "exactly one"},
		{"unknown native op", CompileRequest{
			Device: DeviceSpec{Topology: "linear", Qubits: 4},
			Jobs: []JobSpec{{Circuit: &CircuitSpec{
				Qubits: 2, Gates: []GateSpec{{Op: "toffoli", Qubits: []int{0}}},
			}}},
		}, "toffoli"},
		{"native qubit out of range", CompileRequest{
			Device: DeviceSpec{Topology: "linear", Qubits: 4},
			Jobs: []JobSpec{{Circuit: &CircuitSpec{
				Qubits: 2, Gates: []GateSpec{{Op: "cz", Qubits: []int{0, 5}}},
			}}},
		}, "out of range"},
		{"bad placement", func() CompileRequest {
			r := testRequest(core.ColorDynamic)
			r.Options.Placement = "random"
			return r
		}(), "placement"},
		{"bad router", func() CompileRequest {
			r := testRequest(core.ColorDynamic)
			r.Options.Router = "astar"
			return r
		}(), "astar"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, path := range []string{"/v1/compile", "/v1/batches"} {
				code, body := postJSON(t, ts, path, tc.req)
				if code != http.StatusBadRequest {
					t.Fatalf("%s: status %d, want 400 (%s)", path, code, body)
				}
				var er ErrorResponse
				if err := json.Unmarshal(body, &er); err != nil {
					t.Fatalf("%s: non-JSON error body %q", path, body)
				}
				if !strings.Contains(er.Error, tc.want) {
					t.Errorf("%s: error %q does not mention %q", path, er.Error, tc.want)
				}
			}
		})
	}
}

// TestDeviceSizeLimit checks that an oversize device.qubits is a 400
// rejected before any device is built, and that the limit itself is
// accepted.
func TestDeviceSizeLimit(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := CompileRequest{
		Device: DeviceSpec{Topology: "linear", Qubits: 100_000_000},
		Jobs:   []JobSpec{{QASM: testQASM}},
	}
	for _, path := range []string{"/v1/compile", "/v1/batches"} {
		code, body := postJSON(t, ts, path, req)
		if code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400 (body %s)", path, code, body)
		}
		if !strings.Contains(string(body), "limit is 1024") {
			t.Fatalf("%s: error %q does not name the limit", path, body)
		}
	}
	srv.systems.mu.Lock()
	built := len(srv.systems.m)
	srv.systems.mu.Unlock()
	if built != 0 {
		t.Fatalf("%d systems built for rejected requests", built)
	}

	req.Device.Qubits = MaxDeviceQubits
	if _, aerr := srv.parseRequest(&req); aerr != nil {
		t.Fatalf("device at the limit rejected: %s", aerr.msg)
	}
}

func TestBadJSONBody(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := ts.Client().Post(ts.URL+"/v1/compile", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

// TestBodyTooLarge posts a JSON body of exactly the limit and one a byte
// longer. Each is a single string value, which the decoder reads whole
// before it can judge the request, so only the size tells them apart:
// the first is an invalid request (400), the second too large (413).
func TestBodyTooLarge(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for size, want := range map[int]int{
		maxBodyBytes:     http.StatusBadRequest,
		maxBodyBytes + 1: http.StatusRequestEntityTooLarge,
	} {
		const open, closing = `{"padding":"`, `"}`
		body := open + strings.Repeat("a", size-len(open)-len(closing)) + closing
		resp, err := ts.Client().Post(ts.URL+"/v1/compile", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%d-byte body: status = %d, want %d (%s)", size, resp.StatusCode, want, msg)
		}
	}
}

func TestPollUnknownBatch(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if code := getJSON(t, ts, "/v1/batches/b-999999", nil); code != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", code)
	}
}

func TestQueueFull(t *testing.T) {
	srv := New(Config{MaxConcurrent: 1, MaxQueue: -1})
	gate := make(chan struct{})
	srv.startGate = func() { <-gate }
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, body := postJSON(t, ts, "/v1/batches", testRequest(core.ColorDynamic))
	if code != http.StatusAccepted {
		t.Fatalf("first submit: status %d: %s", code, body)
	}
	var ack SubmitResponse
	if err := json.Unmarshal(body, &ack); err != nil {
		t.Fatal(err)
	}

	// Wait until the first batch holds the compile slot (blocked in the
	// gate), so the admission counter state is deterministic.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var st BatchStatus
		getJSON(t, ts, ack.URL, &st)
		if st.Status == "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("first batch never started running")
		}
		time.Sleep(2 * time.Millisecond)
	}

	for _, path := range []string{"/v1/batches", "/v1/compile"} {
		code, body := postJSON(t, ts, path, testRequest(core.ColorDynamic))
		if code != http.StatusTooManyRequests {
			t.Fatalf("%s while full: status %d, want 429 (%s)", path, code, body)
		}
		var er ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil || !strings.Contains(er.Error, "queue full") {
			t.Fatalf("%s while full: body %q", path, body)
		}
	}

	close(gate)
	st := pollUntilDone(t, ts, ack.URL)
	if st.Failed != 0 {
		t.Fatalf("blocked batch failed after release: %+v", st)
	}

	// With the slot free again, submissions are admitted once more.
	code, body = postJSON(t, ts, "/v1/batches", testRequest(core.ColorDynamic))
	if code != http.StatusAccepted {
		t.Fatalf("submit after release: status %d: %s", code, body)
	}
	var ack2 SubmitResponse
	if err := json.Unmarshal(body, &ack2); err != nil {
		t.Fatal(err)
	}
	pollUntilDone(t, ts, ack2.URL)
}

func TestMeta(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var m MetaResponse
	if code := getJSON(t, ts, "/v1/meta", &m); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(m.Strategies) != 5 {
		t.Errorf("strategies = %v, want the 5 Table I strategies", m.Strategies)
	}
	for _, want := range []string{"grid", "linear", "ring"} {
		found := false
		for _, topo := range m.Topologies {
			if topo == want {
				found = true
			}
		}
		if !found {
			t.Errorf("topologies %v missing %q", m.Topologies, want)
		}
	}
	if len(m.Placements) == 0 || len(m.Routers) == 0 {
		t.Errorf("meta = %+v", m)
	}
}

// metricsText scrapes /metrics.
func metricsText(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return string(data)
}

func TestMetricsEndpoint(t *testing.T) {
	// Save a compiled cache, as a clean fastscd shutdown does.
	dir := t.TempDir()
	snap := filepath.Join(dir, "cache.snap")
	src := New(Config{})
	srcTS := httptest.NewServer(src.Handler())
	doStream(t, srcTS, testRequest(core.ColorDynamic))
	srcTS.Close()
	if err := src.Cache().Save(snap); err != nil {
		t.Fatal(err)
	}

	srv := New(Config{})
	res, err := srv.LoadSnapshot(snap)
	if err != nil || res.Restored == 0 || res.Degraded != "" {
		t.Fatalf("LoadSnapshot = %+v, %v; want a clean load with entries restored", res, err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	doStream(t, ts, testRequest(core.ColorDynamic))
	doStream(t, ts, testRequest(core.ColorDynamic))
	text := metricsText(t, ts)

	for _, want := range []string{
		`fastscd_cache_hits_total{region="smt"}`,
		`fastscd_cache_misses_total{region="slice"}`,
		fmt.Sprintf("fastscd_snapshot_restored_entries %d\n", res.Restored),
		`fastscd_requests_total{endpoint="compile"} 2`,
		"fastscd_batches_done_total 2",
		"fastscd_jobs_total 2",
		"fastscd_jobs_failed_total 0",
		"fastscd_draining 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	if strings.Contains(text, "fastscd_snapshot_degraded_total") {
		t.Errorf("a clean snapshot load exported fastscd_snapshot_degraded_total:\n%s", text)
	}
	// The repeat request must have produced global cache hits.
	if !regionCounterPositive(t, text, "fastscd_cache_hits_total") {
		t.Errorf("no positive fastscd_cache_hits_total counter after a repeat request:\n%s", text)
	}

	// A file that is not a snapshot is discarded: one degraded load,
	// nothing restored.
	bad := filepath.Join(dir, "bad.snap")
	if err := os.WriteFile(bad, []byte("not a snapshot\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cold := New(Config{})
	if res, err := cold.LoadSnapshot(bad); err != nil || res.Degraded != compile.DegradedCorrupt {
		t.Fatalf("LoadSnapshot(non-snapshot) = %+v, %v; want degraded %q", res, err, compile.DegradedCorrupt)
	}
	coldTS := httptest.NewServer(cold.Handler())
	defer coldTS.Close()
	text = metricsText(t, coldTS)
	for _, want := range []string{
		"fastscd_snapshot_restored_entries 0\n",
		`fastscd_snapshot_degraded_total{reason="corrupt"} 1` + "\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics after a discarded snapshot missing %q", want)
		}
	}
}

// regionCounterPositive reports whether any sample of the named metric
// family has a positive value.
func regionCounterPositive(t *testing.T, text, family string) bool {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, family+"{") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[1] != "0" {
			return true
		}
	}
	return false
}

func TestHealthz(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, tc := range []struct{ path, want string }{
		{"/healthz", "ok"},
		{"/readyz", "ready"},
	} {
		resp, err := ts.Client().Get(ts.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != tc.want {
			t.Errorf("%s = %d %q, want 200 %q", tc.path, resp.StatusCode, body, tc.want)
		}
	}
}

func TestStoreEviction(t *testing.T) {
	st := newBatchStore(2)
	a := st.add(1, DefaultPriority)
	b := st.add(1, DefaultPriority)
	a.finish(DoneLine{Type: "done"}, "done")
	c := st.add(1, DefaultPriority) // exceeds limit: evicts a (the only finished batch)
	if st.get(a.id) != nil {
		t.Errorf("finished batch %s not evicted", a.id)
	}
	if st.get(b.id) == nil || st.get(c.id) == nil {
		t.Errorf("unfinished batches must never be evicted")
	}
	// With no finished batch to shed, the store grows past the limit
	// rather than dropping pollable state.
	d := st.add(1, DefaultPriority)
	if st.get(d.id) == nil || st.len() != 3 {
		t.Errorf("store len = %d", st.len())
	}
}
