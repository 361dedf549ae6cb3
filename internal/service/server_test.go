package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"unsched/internal/comm"
	"unsched/internal/costmodel"
	"unsched/internal/des"
	"unsched/internal/expt"
	"unsched/internal/hypercube"
	"unsched/internal/mesh"
	"unsched/internal/sched"
	"unsched/internal/topo"
	"unsched/internal/workload"
)

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	svc, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc)
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return svc, ts
}

// postJSON posts v and decodes the response body into out (unless nil).
func postJSON(t *testing.T, url string, v any, out any) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("bad response body %q: %v", raw, err)
		}
	}
	return resp.StatusCode, raw
}

func getJSON(t *testing.T, url string, out any) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("bad response body %q: %v", raw, err)
		}
	}
	return resp.StatusCode, raw
}

// testMatrix returns a deterministic d-regular wire matrix.
func testMatrix(t *testing.T, n, d int, bytes int64, seed int64) *WireMatrix {
	t.Helper()
	m, err := comm.DRegular(n, d, bytes, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return NewWireMatrix(m)
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	var doc HealthStatus
	status, _ := getJSON(t, ts.URL+"/healthz", &doc)
	if status != http.StatusOK || doc.Status != "ok" {
		t.Fatalf("healthz: status %d, doc %+v", status, doc)
	}
}

func TestScheduleEndpointAlgorithms(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	for _, alg := range append([]string{"auto"}, sched.Tags()...) {
		req := ScheduleRequest{Matrix: testMatrix(t, 16, 4, 4096, 1), Algorithm: alg}
		var env Envelope
		status, raw := postJSON(t, ts.URL+"/v1/schedule", req, &env)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", alg, status, raw)
		}
		var res ScheduleResult
		if err := json.Unmarshal(env.Result, &res); err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if res.Schedule == nil || res.Schedule.N != 16 {
			t.Fatalf("%s: bad schedule in result: %s", alg, env.Result)
		}
		if alg != "auto" && res.Chosen != alg {
			t.Errorf("%s: chosen %q", alg, res.Chosen)
		}
		if alg == "AC" && len(res.Schedule.Phases) != 0 {
			t.Errorf("AC returned %d phases", len(res.Schedule.Phases))
		}
		if alg == "LP" && !res.LinkFree {
			t.Error("LP schedule not link-free on the cube")
		}
	}
}

func TestScheduleCacheHitIsByteIdentical(t *testing.T) {
	svc, ts := newTestServer(t, Options{Workers: 2})
	req := ScheduleRequest{Matrix: testMatrix(t, 32, 6, 2048, 7), Algorithm: "RS_NL", Seed: 42}

	var first Envelope
	status, raw := postJSON(t, ts.URL+"/v1/schedule", req, &first)
	if status != http.StatusOK {
		t.Fatalf("first: status %d: %s", status, raw)
	}
	if first.Cached {
		t.Fatal("first request reported a cache hit")
	}
	var second Envelope
	status, _ = postJSON(t, ts.URL+"/v1/schedule", req, &second)
	if status != http.StatusOK {
		t.Fatalf("second: status %d", status)
	}
	if !second.Cached {
		t.Fatal("repeated identical request was not a cache hit")
	}
	if second.Key != first.Key {
		t.Fatalf("keys differ: %s vs %s", first.Key, second.Key)
	}
	if !bytes.Equal(first.Result, second.Result) {
		t.Fatal("cache hit returned different result bytes")
	}
	if hits := svc.cacheHits[epSchedule].Load(); hits != 1 {
		t.Fatalf("cache hits = %d, want 1", hits)
	}

	// A different seed is a different key and (overwhelmingly likely
	// for a 32-node RS_NL) a different schedule.
	req.Seed = 43
	var third Envelope
	postJSON(t, ts.URL+"/v1/schedule", req, &third)
	if third.Cached || third.Key == first.Key {
		t.Fatal("different seed collided with the first request")
	}
}

func TestScheduleDeterministicAcrossServers(t *testing.T) {
	// Identical requests to two independent daemons (no shared cache)
	// must produce identical schedules: the RNG seed derives from the
	// request content, not server state.
	req := ScheduleRequest{Matrix: testMatrix(t, 32, 5, 1024, 3), Algorithm: "RS_N"}
	var results [][]byte
	for i := 0; i < 2; i++ {
		_, ts := newTestServer(t, Options{Workers: 1})
		var env Envelope
		status, raw := postJSON(t, ts.URL+"/v1/schedule", req, &env)
		if status != http.StatusOK {
			t.Fatalf("server %d: status %d: %s", i, status, raw)
		}
		results = append(results, env.Result)
	}
	if !bytes.Equal(results[0], results[1]) {
		t.Fatal("two servers computed different schedules for the same request")
	}
}

func TestScheduleBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	cases := []struct {
		name string
		body string
	}{
		{"empty", ``},
		{"not json", `{{{`},
		{"trailing garbage", `{"matrix":{"n":4,"messages":[]}} extra`},
		{"trailing brace", `{"matrix":{"n":4,"messages":[[0,1,10]]}}}`},
		{"trailing bracket", `{"matrix":{"n":4,"messages":[[0,1,10]]}}]`},
		{"trailing brackets and garbage", `{"matrix":{"n":4,"messages":[[0,1,10]]}}]]]garbage`},
		{"unknown field", `{"matrix":{"n":4,"messages":[]},"bogus":1}`},
		{"missing matrix", `{"algorithm":"LP"}`},
		{"n too small", `{"matrix":{"n":1,"messages":[]}}`},
		{"n too big", `{"matrix":{"n":100000,"messages":[]}}`},
		{"self message", `{"matrix":{"n":4,"messages":[[2,2,10]]}}`},
		{"out of range", `{"matrix":{"n":4,"messages":[[0,9,10]]}}`},
		{"negative size", `{"matrix":{"n":4,"messages":[[0,1,-10]]}}`},
		{"unknown algorithm", `{"matrix":{"n":4,"messages":[[0,1,10]]},"algorithm":"MAGIC"}`},
		{"unknown topology", `{"matrix":{"n":4,"messages":[[0,1,10]]},"topology":{"kind":"hex"}}`},
		{"spec plus structured fields", `{"matrix":{"n":4,"messages":[[0,1,10]]},"topology":{"kind":"mesh","spec":"mesh:2x2"}}`},
		{"disconnected graph", `{"matrix":{"n":4,"messages":[[0,1,10]]},"topology":{"kind":"graph","n":4,"edges":[[0,1],[2,3]]}}`},
		{"topology size mismatch", `{"matrix":{"n":4,"messages":[[0,1,10]]},"topology":{"kind":"mesh","w":3,"h":3}}`},
		{"non power of two cube", `{"matrix":{"n":6,"messages":[[0,1,10]]}}`},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/schedule", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, raw)
		}
		var doc ErrorEnvelope
		if err := json.Unmarshal(raw, &doc); err != nil || doc.Error == "" {
			t.Errorf("%s: error response not a JSON error doc: %s", tc.name, raw)
		}
		if doc.Err.Code == "" || doc.Err.Message != doc.Error {
			t.Errorf("%s: error envelope missing structured detail: %s", tc.name, raw)
		}
	}
}

func TestSimulateEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	mj := testMatrix(t, 16, 4, 8192, 5)

	// Schedule first, then feed the schedule back into /v1/simulate.
	var env Envelope
	status, raw := postJSON(t, ts.URL+"/v1/schedule", ScheduleRequest{Matrix: mj, Algorithm: "RS_NL"}, &env)
	if status != http.StatusOK {
		t.Fatalf("schedule: status %d: %s", status, raw)
	}
	var schedRes ScheduleResult
	if err := json.Unmarshal(env.Result, &schedRes); err != nil {
		t.Fatal(err)
	}

	var simEnv Envelope
	status, raw = postJSON(t, ts.URL+"/v1/simulate",
		SimulateRequest{Schedule: schedRes.Schedule, Matrix: mj}, &simEnv)
	if status != http.StatusOK {
		t.Fatalf("simulate: status %d: %s", status, raw)
	}
	var simRes SimulateResult
	if err := json.Unmarshal(simEnv.Result, &simRes); err != nil {
		t.Fatal(err)
	}
	if simRes.Protocol != "S1" {
		t.Errorf("RS_NL simulated under %s, want S1", simRes.Protocol)
	}
	if simRes.MakespanUS <= 0 {
		t.Errorf("non-positive makespan %v", simRes.MakespanUS)
	}

	// Repeat: cache hit, byte-identical.
	var rep Envelope
	postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{Schedule: schedRes.Schedule, Matrix: mj}, &rep)
	if !rep.Cached || !bytes.Equal(rep.Result, simEnv.Result) {
		t.Fatal("repeated simulate was not a byte-identical cache hit")
	}

	// AC run straight from the matrix.
	var acEnv Envelope
	status, raw = postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{Matrix: mj}, &acEnv)
	if status != http.StatusOK {
		t.Fatalf("AC simulate: status %d: %s", status, raw)
	}
	var acRes SimulateResult
	if err := json.Unmarshal(acEnv.Result, &acRes); err != nil {
		t.Fatal(err)
	}
	if acRes.Protocol != "AC" || acRes.MakespanUS <= 0 {
		t.Errorf("AC run: %+v", acRes)
	}

	// Explicit protocol override and the ipsc2 model.
	var s2Env Envelope
	status, raw = postJSON(t, ts.URL+"/v1/simulate",
		SimulateRequest{Schedule: schedRes.Schedule, Protocol: "S2", Params: "ipsc2"}, &s2Env)
	if status != http.StatusOK {
		t.Fatalf("S2/ipsc2 simulate: status %d: %s", status, raw)
	}
}

func TestSimulateBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	mj := testMatrix(t, 8, 2, 512, 9)
	var env Envelope
	if status, raw := postJSON(t, ts.URL+"/v1/schedule", ScheduleRequest{Matrix: mj, Algorithm: "RS_N"}, &env); status != 200 {
		t.Fatalf("schedule: %d %s", status, raw)
	}
	var schedRes ScheduleResult
	if err := json.Unmarshal(env.Result, &schedRes); err != nil {
		t.Fatal(err)
	}

	// Schedule that does not match the supplied matrix.
	other := testMatrix(t, 8, 3, 512, 10)
	if status, _ := postJSON(t, ts.URL+"/v1/simulate",
		SimulateRequest{Schedule: schedRes.Schedule, Matrix: other}, nil); status != http.StatusBadRequest {
		t.Errorf("mismatched matrix accepted: status %d", status)
	}
	// No schedule and no matrix.
	if status, _ := postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{}, nil); status != http.StatusBadRequest {
		t.Errorf("empty simulate accepted: status %d", status)
	}
	// Unknown protocol / params.
	if status, _ := postJSON(t, ts.URL+"/v1/simulate",
		SimulateRequest{Schedule: schedRes.Schedule, Protocol: "S9"}, nil); status != http.StatusBadRequest {
		t.Errorf("unknown protocol accepted")
	}
	if status, _ := postJSON(t, ts.URL+"/v1/simulate",
		SimulateRequest{Schedule: schedRes.Schedule, Params: "cray"}, nil); status != http.StatusBadRequest {
		t.Errorf("unknown params accepted")
	}
	// Phase with node contention.
	bad := &WireSchedule{Algorithm: "RS_N", N: 4, Phases: []WirePhase{{{0, 2, 10}, {1, 2, 10}}}}
	if status, _ := postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{Schedule: bad}, nil); status != http.StatusBadRequest {
		t.Errorf("contending phase accepted")
	}
	// Anything but whitespace after the document is malformed, a
	// closing bracket included.
	for _, trailing := range []string{"}", "]", "]]]garbage", " x"} {
		body := `{"matrix":{"n":4,"messages":[[0,1,256]]}}` + trailing
		resp, raw := doWire(t, ts, "/v1/simulate", []byte(body), nil)
		var env ErrorEnvelope
		if err := json.Unmarshal(raw, &env); err != nil {
			t.Fatalf("%s: bad error body %q: %v", body, raw, err)
		}
		if want := "bad request body: trailing data after JSON document"; resp.StatusCode != http.StatusBadRequest || env.Err.Message != want {
			t.Errorf("%s: got %d %+v, want 400 %q", body, resp.StatusCode, env.Err, want)
		}
	}
	// A schedule the LP protocol cannot run is the client's mistake:
	// 400 bad_request with the simulator's own message, not 500. So is
	// a protocol the simulator does not know.
	for _, c := range []struct{ body, msg string }{
		{`{"schedule":{"algorithm":"RS_N","n":4,"ops":0,"phases":[[[0,1,256]]]},"protocol":"LP"}`,
			"ipsc: the LP protocol needs an LP schedule, got RS_N"},
		{`{"schedule":{"algorithm":"LP","n":4,"ops":0,"phases":[[[0,2,256]]]}}`,
			"ipsc: phase 0 sends 0->2, not the XOR partner 1"},
		{`{"schedule":{"algorithm":"RS_N","n":4,"ops":0,"phases":[[[0,1,256]]]},"protocol":"S9"}`,
			`unknown protocol "S9" (want auto, S1, S2, or LP)`},
	} {
		resp, raw := doWire(t, ts, "/v1/simulate", []byte(c.body), nil)
		var env ErrorEnvelope
		if err := json.Unmarshal(raw, &env); err != nil {
			t.Fatalf("%s: bad error body %q: %v", c.body, raw, err)
		}
		if resp.StatusCode != http.StatusBadRequest || env.Err.Code != CodeBadRequest || env.Err.Message != c.msg {
			t.Errorf("%s: got %d %+v, want 400 %s %q", c.body, resp.StatusCode, env.Err, CodeBadRequest, c.msg)
		}
	}
}

func TestCampaignEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	req := CampaignRequest{Densities: []int{2}, Sizes: []int64{256}, Samples: 2, Seed: 11, Dim: 3}
	var accepted CampaignAccepted
	status, raw := postJSON(t, ts.URL+"/v1/campaign", req, &accepted)
	if status != http.StatusAccepted {
		t.Fatalf("campaign: status %d: %s", status, raw)
	}
	if accepted.ID == "" || accepted.URL == "" {
		t.Fatalf("campaign response missing id/url: %s", raw)
	}

	var st CampaignStatus
	deadline := time.Now().Add(30 * time.Second)
	for {
		status, raw = getJSON(t, ts.URL+accepted.URL, &st)
		if status != http.StatusOK {
			t.Fatalf("poll: status %d: %s", status, raw)
		}
		if st.State != campaignRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign still running after 30s: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.State != campaignDone {
		t.Fatalf("campaign finished as %q (%s)", st.State, st.Error)
	}
	if st.Done != st.Total || st.Total != 2*len(expt.Algorithms) {
		t.Errorf("progress %d/%d, want %d/%d", st.Done, st.Total, 2*len(expt.Algorithms), 2*len(expt.Algorithms))
	}
	if len(st.Cells) != len(expt.Algorithms) {
		t.Fatalf("got %d cells, want %d", len(st.Cells), len(expt.Algorithms))
	}

	// The async service result must agree exactly with a direct
	// in-process run of the campaign engine at the same seed.
	cfg := expt.Config{Topology: hypercube.MustNew(3), Params: mustParams(t, "ipsc860"), Samples: 2, Seed: 11}
	want, err := expt.NewRunner(cfg).MeasureCell(context.Background(), 2, 256)
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range st.Cells {
		ref := want[expt.Algorithm(cell.Algorithm)]
		if cell.CommMS != ref.CommMS || cell.Iters != ref.Iters {
			t.Errorf("%s: service says comm=%v iters=%v, direct run %v/%v",
				cell.Algorithm, cell.CommMS, cell.Iters, ref.CommMS, ref.Iters)
		}
	}
}

func mustParams(t *testing.T, name string) costmodel.Params {
	t.Helper()
	_, params, err := resolveParams(name)
	if err != nil {
		t.Fatal(err)
	}
	return params
}

func TestCampaignNotFoundAndBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	if status, _ := getJSON(t, ts.URL+"/v1/campaign/nope", nil); status != http.StatusNotFound {
		t.Errorf("unknown campaign id: status %d, want 404", status)
	}
	bad := []CampaignRequest{
		{},                    // nothing
		{Densities: []int{2}}, // no sizes/samples
		{Densities: []int{200}, Sizes: []int64{64}, Samples: 1, Dim: 3},  // density >= nodes
		{Densities: []int{2}, Sizes: []int64{-1}, Samples: 1, Dim: 3},    // bad size
		{Densities: []int{2}, Sizes: []int64{64}, Samples: 9999, Dim: 3}, // too many samples
		{Densities: []int{2}, Sizes: []int64{64}, Samples: 1, Dim: 99},   // bad dim
	}
	for i, req := range bad {
		if status, raw := postJSON(t, ts.URL+"/v1/campaign", req, nil); status != http.StatusBadRequest {
			t.Errorf("bad campaign %d accepted: status %d (%s)", i, status, raw)
		}
	}
	// A valid campaign with anything but whitespace after it.
	for _, trailing := range []string{"}", "]", " x"} {
		body := `{"densities":[2],"sizes":[64],"samples":1,"dim":3}` + trailing
		if resp, raw := doWire(t, ts, "/v1/campaign", []byte(body), nil); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", body, resp.StatusCode, raw)
		}
	}
}

func TestCampaignConcurrencyLimit(t *testing.T) {
	svc, ts := newTestServer(t, Options{Workers: 1, MaxCampaigns: 1})
	// Hold the only campaign slot, exactly as a long-running campaign
	// would, so the submission below is deterministically shed.
	if !svc.campaigns.acquire() {
		t.Fatal("could not take the campaign slot")
	}
	defer svc.campaigns.release()
	quick := CampaignRequest{Densities: []int{2}, Sizes: []int64{64}, Samples: 1, Dim: 3}
	if status, _ := postJSON(t, ts.URL+"/v1/campaign", quick, nil); status != http.StatusTooManyRequests {
		t.Errorf("concurrent campaign past the limit: status %d, want 429", status)
	}
}

func TestQueueBackpressure429(t *testing.T) {
	svc, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	// Occupy the only worker with a task we control, then fill the
	// one queue slot, so the next HTTP request must be shed.
	started := make(chan struct{})
	release := make(chan struct{})
	blocker := &task{run: func(*worker) { close(started); <-release }, done: make(chan struct{})}
	if err := svc.pool.submit(blocker); err != nil {
		t.Fatal(err)
	}
	<-started
	filler := &task{run: func(*worker) {}, done: make(chan struct{})}
	if err := svc.pool.submit(filler); err != nil {
		t.Fatal(err)
	}

	req := ScheduleRequest{Matrix: testMatrix(t, 8, 2, 512, 2), Algorithm: "RS_N"}
	status, raw := postJSON(t, ts.URL+"/v1/schedule", req, nil)
	if status != http.StatusTooManyRequests {
		t.Fatalf("saturated queue: status %d, want 429 (%s)", status, raw)
	}
	close(release)
	<-filler.done

	// Once drained, the same request succeeds.
	if status, raw := postJSON(t, ts.URL+"/v1/schedule", req, nil); status != http.StatusOK {
		t.Fatalf("after drain: status %d (%s)", status, raw)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	req := ScheduleRequest{Matrix: testMatrix(t, 8, 2, 512, 4), Algorithm: "RS_N"}
	postJSON(t, ts.URL+"/v1/schedule", req, nil)
	postJSON(t, ts.URL+"/v1/schedule", req, nil)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(raw)
	for _, want := range []string{
		`unschedd_requests_total{endpoint="schedule"} 2`,
		`unschedd_cache_hits_total{endpoint="schedule"} 1`,
		`unschedd_cache_misses_total{endpoint="schedule"} 1`,
		`unschedd_cache_hits_total{endpoint="simulate"} 0`,
		"unschedd_flight_dedup_total 0",
		"unschedd_cache_entries 1",
		"unschedd_cache_warm_loaded_entries 0",
		"unschedd_disk_load_errors_total 0",
		"unschedd_disk_write_errors_total 0",
		"unschedd_workers 1",
		"unschedd_queue_capacity 4",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q:\n%s", want, text)
		}
	}
}

func TestConcurrentClients(t *testing.T) {
	// Many clients, few distinct requests: every response for the same
	// request must carry identical result bytes whether it was computed
	// or served from cache. Run under -race this also exercises the
	// pool, cache, and campaign registry for data races.
	_, ts := newTestServer(t, Options{Workers: 4, QueueDepth: 256})
	matrices := []*WireMatrix{
		testMatrix(t, 16, 4, 1024, 1),
		testMatrix(t, 16, 4, 1024, 2),
		testMatrix(t, 32, 8, 4096, 3),
	}
	algs := []string{"auto", "LP", "RS_N", "RS_NL"}

	const clients = 16
	const perClient = 12
	var mu sync.Mutex
	results := map[string][]byte{} // key -> result bytes
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				req := ScheduleRequest{
					Matrix:    matrices[(c+i)%len(matrices)],
					Algorithm: algs[(c+2*i)%len(algs)],
				}
				body, _ := json.Marshal(req)
				resp, err := http.Post(ts.URL+"/v1/schedule", "application/json", bytes.NewReader(body))
				if err != nil {
					errCh <- err
					return
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusTooManyRequests {
					continue // legitimate shed under load
				}
				if resp.StatusCode != http.StatusOK {
					errCh <- fmt.Errorf("client %d: status %d: %s", c, resp.StatusCode, raw)
					return
				}
				var env Envelope
				if err := json.Unmarshal(raw, &env); err != nil {
					errCh <- err
					return
				}
				mu.Lock()
				if prev, ok := results[env.Key]; ok {
					if !bytes.Equal(prev, env.Result) {
						mu.Unlock()
						errCh <- fmt.Errorf("key %s: divergent results", env.Key)
						return
					}
				} else {
					results[env.Key] = env.Result
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

func TestSingleFlightDeduplicatesConcurrentMisses(t *testing.T) {
	svc, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4})
	// Park the only worker so the leader's computation cannot start;
	// every identical request arriving meanwhile must join its flight
	// instead of queueing its own computation.
	started := make(chan struct{})
	release := make(chan struct{})
	blocker := &task{run: func(*worker) { close(started); <-release }, done: make(chan struct{})}
	if err := svc.pool.submit(blocker); err != nil {
		t.Fatal(err)
	}
	<-started

	req := ScheduleRequest{Matrix: testMatrix(t, 16, 4, 2048, 8), Algorithm: "RS_NL"}
	body, _ := json.Marshal(req)
	const clients = 6
	envs := make([]Envelope, clients)
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/schedule", "application/json", bytes.NewReader(body))
			if err != nil {
				errCh <- err
				return
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errCh <- fmt.Errorf("client %d: status %d: %s", i, resp.StatusCode, raw)
				return
			}
			errCh <- json.Unmarshal(raw, &envs[i])
		}(i)
	}
	// Let the clients reach the server, then let the worker go. The
	// sleep only widens the race window; correctness must not depend
	// on who arrives when.
	time.Sleep(100 * time.Millisecond)
	close(release)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}

	computed := 0
	for i, env := range envs {
		if !env.Cached {
			computed++
		}
		if !bytes.Equal(env.Result, envs[0].Result) {
			t.Errorf("client %d got divergent result bytes", i)
		}
	}
	if computed != 1 {
		t.Errorf("%d clients computed, want exactly 1 leader", computed)
	}
}

func TestWorkerSurvivesTaskPanic(t *testing.T) {
	svc, ts := newTestServer(t, Options{Workers: 1})
	boom := &task{run: func(*worker) { panic("boom") }, done: make(chan struct{})}
	if err := svc.pool.submit(boom); err != nil {
		t.Fatal(err)
	}
	<-boom.done
	if boom.panicked == nil {
		t.Fatal("panic was not captured on the task")
	}
	// The single worker must have survived to serve real traffic.
	req := ScheduleRequest{Matrix: testMatrix(t, 8, 2, 512, 12), Algorithm: "RS_N"}
	if status, raw := postJSON(t, ts.URL+"/v1/schedule", req, nil); status != http.StatusOK {
		t.Fatalf("worker died with the panicking task: status %d (%s)", status, raw)
	}
}

func TestScheduleRejectsPhaseFlood(t *testing.T) {
	// ~17 KB of dense phase state per 3 bytes of JSON is a memory
	// amplifier; the phase cap must reject it before allocation.
	_, ts := newTestServer(t, Options{Workers: 1})
	var b strings.Builder
	b.WriteString(`{"schedule":{"algorithm":"RS_N","n":64,"ops":0,"phases":[`)
	for i := 0; i < 300; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString("[]")
	}
	b.WriteString(`]}}`)
	resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("300 phases for n=64 accepted: status %d", resp.StatusCode)
	}
}

// spaces is an endless run of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

func TestOversizedBodyIs413(t *testing.T) {
	svc, err := NewServer(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	for _, c := range []struct {
		name   string
		body   io.Reader
		length int64
	}{
		{"declared length", strings.NewReader("{}"), maxRequestBytes + 1},
		// A chunked body declares no length. The cap must hold even when
		// its JSON document ends early and whitespace runs on past it.
		{"chunked whitespace tail", io.MultiReader(
			strings.NewReader(`{"matrix":{"n":4,"messages":[[0,1,10]]},"algorithm":"RS_N"}`),
			io.LimitReader(spaces{}, 33<<20)), -1},
	} {
		t.Run(c.name, func(t *testing.T) {
			req := httptest.NewRequest(http.MethodPost, "/v1/schedule", c.body)
			req.ContentLength = c.length
			rec := httptest.NewRecorder()
			svc.ServeHTTP(rec, req)
			if rec.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("oversized body: status %d, want 413", rec.Code)
			}
			if !strings.Contains(rec.Body.String(), `"code":"`+CodePayloadTooLarge+`"`) {
				t.Errorf("oversized body: error %s, want code %s", rec.Body, CodePayloadTooLarge)
			}
		})
	}
}

func TestCloseRefusesNewWork(t *testing.T) {
	svc, err := NewServer(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc)
	defer ts.Close()
	svc.Close()
	req := ScheduleRequest{Matrix: testMatrix(t, 8, 2, 512, 6), Algorithm: "RS_N"}
	status, _ := postJSON(t, ts.URL+"/v1/schedule", req, nil)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("request after Close: status %d, want 503", status)
	}
}

// TestCampaignTorusTopology is the tentpole acceptance check at the
// service boundary: a campaign on "topology": torus 8x8 runs the §6
// grid, and its cells agree exactly with a direct in-process run of
// the topology-generic engine — at sequential parallelism, which the
// engine guarantees is bit-identical to any other worker count.
func TestCampaignTorusTopology(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	req := CampaignRequest{
		Densities: []int{4, 8},
		Sizes:     []int64{1024},
		Samples:   1,
		Seed:      11,
		Topology:  &WireTopology{Kind: "torus", W: 8, H: 8},
	}
	var accepted CampaignAccepted
	status, raw := postJSON(t, ts.URL+"/v1/campaign", req, &accepted)
	if status != http.StatusAccepted {
		t.Fatalf("campaign: status %d: %s", status, raw)
	}
	if accepted.Key == "" {
		t.Fatalf("campaign response missing content-hash key: %s", raw)
	}

	var st CampaignStatus
	deadline := time.Now().Add(30 * time.Second)
	for {
		if status, raw = getJSON(t, ts.URL+accepted.URL, &st); status != http.StatusOK {
			t.Fatalf("poll: status %d: %s", status, raw)
		}
		if st.State != campaignRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign still running after 30s: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.State != campaignDone {
		t.Fatalf("campaign finished as %q (%s)", st.State, st.Error)
	}
	if st.Topology != "torus-8x8" {
		t.Errorf("status topology %q, want torus-8x8", st.Topology)
	}
	if st.Key != accepted.Key {
		t.Errorf("status key %q != accepted key %q", st.Key, accepted.Key)
	}
	if st.Done != st.Total {
		t.Errorf("done campaign reports %d/%d", st.Done, st.Total)
	}

	cfg := expt.Config{
		Topology: mesh.MustNew(8, 8, true),
		Params:   mustParams(t, "ipsc860"),
		Samples:  1,
		Seed:     11,
	}
	runner := &expt.Runner{Config: cfg, Parallelism: 1}
	want, err := runner.MeasureCells(context.Background(),
		[]expt.Point{{Density: 4, MsgBytes: 1024}, {Density: 8, MsgBytes: 1024}})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Cells) != 2*len(expt.Algorithms) {
		t.Fatalf("got %d cells, want %d", len(st.Cells), 2*len(expt.Algorithms))
	}
	for _, cell := range st.Cells {
		pt := 0
		if cell.Density == 8 {
			pt = 1
		}
		ref := want[pt][expt.Algorithm(cell.Algorithm)]
		if cell.CommMS != ref.CommMS || cell.CompMS != ref.CompMS || cell.Iters != ref.Iters {
			t.Errorf("%s d=%d: service says comm=%v comp=%v iters=%v, direct run %v/%v/%v",
				cell.Algorithm, cell.Density, cell.CommMS, cell.CompMS, cell.Iters,
				ref.CommMS, ref.CompMS, ref.Iters)
		}
	}

	// The identical request must produce the identical content key.
	var accepted2 CampaignAccepted
	if status, raw := postJSON(t, ts.URL+"/v1/campaign", req, &accepted2); status != http.StatusAccepted {
		t.Fatalf("second campaign: status %d: %s", status, raw)
	}
	if accepted2.Key != accepted.Key {
		t.Errorf("identical campaigns keyed %q and %q", accepted.Key, accepted2.Key)
	}
}

// TestCampaignTopologyBadRequests covers the topology-specific
// rejections of POST /v1/campaign.
func TestCampaignTopologyBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	bad := []CampaignRequest{
		// dim and topology together are ambiguous.
		{Densities: []int{2}, Sizes: []int64{64}, Samples: 1, Dim: 3,
			Topology: &WireTopology{Kind: "torus", W: 4, H: 4}},
		// LP needs a power-of-two node count.
		{Densities: []int{2}, Sizes: []int64{64}, Samples: 1,
			Topology: &WireTopology{Kind: "ring", N: 12}},
		// Density too dense for the machine.
		{Densities: []int{16}, Sizes: []int64{64}, Samples: 1,
			Topology: &WireTopology{Kind: "torus", W: 4, H: 4}},
		// Unknown kind, disconnected graph, over the service node cap.
		{Densities: []int{2}, Sizes: []int64{64}, Samples: 1,
			Topology: &WireTopology{Kind: "hex", N: 8}},
		{Densities: []int{2}, Sizes: []int64{64}, Samples: 1,
			Topology: &WireTopology{Kind: "graph", N: 4, Edges: [][2]int{{0, 1}, {2, 3}}}},
		// Over the campaign node cap (campaigns stay at 1024 even
		// though single requests go to maxServiceNodes).
		{Densities: []int{2}, Sizes: []int64{64}, Samples: 1,
			Topology: &WireTopology{Kind: "ring", N: 2048}},
	}
	for i, req := range bad {
		if status, raw := postJSON(t, ts.URL+"/v1/campaign", req, nil); status != http.StatusBadRequest {
			t.Errorf("bad campaign %d accepted: status %d (%s)", i, status, raw)
		}
	}
	// The spec string form works end to end on the campaign endpoint.
	ok := CampaignRequest{Densities: []int{2}, Sizes: []int64{64}, Samples: 1,
		Topology: &WireTopology{Spec: "cube:3"}}
	if status, raw := postJSON(t, ts.URL+"/v1/campaign", ok, nil); status != http.StatusAccepted {
		t.Errorf("spec-form campaign rejected: status %d (%s)", status, raw)
	}
}

// TestCampaignDonePinnedAtCompletion is the progress-race regression
// test: finish must pin done to total before flipping the state, so a
// status read can never see a done campaign under 100%. (Before the
// fix, finish left the counter wherever the last Progress tick put
// it.)
func TestCampaignDonePinnedAtCompletion(t *testing.T) {
	j := &campaignJob{id: "c1", state: campaignRunning, total: 8}
	// The last Progress tick a status reader might have raced with.
	j.done.Store(int64(j.total) - 1)
	j.finish([]CampaignCell{}, nil)
	st := j.status()
	if st.State != campaignDone {
		t.Fatalf("state %q, want done", st.State)
	}
	if st.Done != st.Total {
		t.Errorf("done campaign reports %d/%d; finish must pin done = total", st.Done, st.Total)
	}
	// A failed campaign keeps its true progress: pinning there would
	// fake completed work.
	f := &campaignJob{id: "c2", state: campaignRunning, total: 8}
	f.done.Store(3)
	f.finish(nil, context.Canceled)
	if st := f.status(); st.Done != 3 {
		t.Errorf("failed campaign reports done=%d, want the real 3", st.Done)
	}
}

// TestFollowerClientGoneIs499 is the cancellation-misclassification
// regression test: a single-flight follower whose client disconnects
// while the leader computes must get a 4xx (it is the client's abort,
// not a server failure) and must not count as a rejection. Before the
// fix it was a 503, inflating server-error rates for client hangups.
func TestFollowerClientGoneIs499(t *testing.T) {
	svc, err := NewServer(Options{Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	// Hold the flight for key ourselves, playing the leader mid-compute:
	// any request for the same key now joins as a follower.
	const key = "deadbeef"
	call, isLeader := svc.flights.join(key)
	if !isLeader {
		t.Fatal("test could not take flight leadership")
	}
	defer svc.flights.finish(key, call, nil, nil)

	// Follower with an already-cancelled client.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/schedule", nil).WithContext(ctx)
	svc.respondMemoized(rec, req, conneg{enc: encJSON}, job{key: key, ep: epSchedule,
		compute: func(wk *worker) (wireDoc, error) {
			t.Error("follower must not compute")
			return nil, nil
		}})
	if rec.Code != statusClientClosedRequest {
		t.Errorf("follower with dead client got %d, want %d", rec.Code, statusClientClosedRequest)
	}
	if rec.Code >= 500 {
		t.Errorf("client abort answered with server error %d", rec.Code)
	}
	if got := svc.rejected.Load(); got != 0 {
		t.Errorf("client abort counted as %d rejections", got)
	}
}

// TestCampaignWorkloadsEndToEnd is the acceptance path of the
// workload axis: a non-uniform workload grid (halo exchange plus a
// hot-spot) on a torus runs through POST /v1/campaign and must agree
// cell-exactly with a direct in-process run of the campaign engine —
// same seed, same streams, same numbers.
func TestCampaignWorkloadsEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	req := CampaignRequest{
		Workloads: []string{"halo:8x8:512", "uniform:4:1024"},
		Samples:   2, Seed: 11,
		Topology: &WireTopology{Spec: "torus:8x8"},
	}
	var accepted CampaignAccepted
	status, raw := postJSON(t, ts.URL+"/v1/campaign", req, &accepted)
	if status != http.StatusAccepted {
		t.Fatalf("campaign: status %d: %s", status, raw)
	}
	if accepted.Key == "" {
		t.Fatalf("campaign response missing content key: %s", raw)
	}

	var st CampaignStatus
	deadline := time.Now().Add(30 * time.Second)
	for {
		status, raw = getJSON(t, ts.URL+accepted.URL, &st)
		if status != http.StatusOK {
			t.Fatalf("poll: status %d: %s", status, raw)
		}
		if st.State != campaignRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign still running after 30s: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.State != campaignDone {
		t.Fatalf("campaign finished as %q (%s)", st.State, st.Error)
	}
	if len(st.Cells) != 2*len(expt.Algorithms) {
		t.Fatalf("got %d cells, want %d", len(st.Cells), 2*len(expt.Algorithms))
	}

	cfg := expt.Config{
		Topology: topo.MustParseSpec("torus:8x8").MustBuild(),
		Params:   mustParams(t, "ipsc860"), Samples: 2, Seed: 11,
	}
	want, err := expt.NewRunner(cfg).MeasureWorkloads(context.Background(), []workload.Spec{
		workload.MustParseSpec("halo:8x8:512"),
		workload.UniformSpec(4, 1024),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, cell := range st.Cells {
		ref := want[i/len(expt.Algorithms)][expt.Algorithm(cell.Algorithm)]
		if cell.Workload != ref.Workload || cell.CommMS != ref.CommMS || cell.Iters != ref.Iters {
			t.Errorf("cell %d (%s %s): service says comm=%v iters=%v, direct run (%s) %v/%v",
				i, cell.Workload, cell.Algorithm, cell.CommMS, cell.Iters, ref.Workload, ref.CommMS, ref.Iters)
		}
	}

	// Key canonicalization: the dregular alias spelling must hash to
	// the same campaign key as its canonical uniform form — the keys
	// are over canonical spec strings, not the raw request bytes.
	alias := req
	alias.Workloads = []string{"halo:8x8:512", "dregular:4:1024"}
	aliasKey := campaignKeyFor(t, &alias)
	if aliasKey != accepted.Key {
		t.Errorf("dregular-alias campaign hashed to %s, canonical run said %s", aliasKey, accepted.Key)
	}
	alias.Workloads = []string{"halo:8x8:512", "uniform:4:2048"}
	if campaignKeyFor(t, &alias) == accepted.Key {
		t.Error("different workload grid shares the campaign key")
	}
}

// campaignKeyFor resolves a campaign request to its content-hash key.
func campaignKeyFor(t *testing.T, req *CampaignRequest) string {
	t.Helper()
	_, _, key, err := resolveCampaign(req)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// TestCampaignWorkloadBadRequests is the bad-request table of the
// workload field: malformed and oversized specs must be rejected with
// 400 from the spec string alone — before any O(n^2) matrix or
// O(elements) mesh build.
func TestCampaignWorkloadBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	cases := []struct {
		name string
		req  CampaignRequest
	}{
		{"malformed spec", CampaignRequest{Workloads: []string{"uniform:4"}, Samples: 1, Dim: 3}},
		{"unknown kind", CampaignRequest{Workloads: []string{"klein:4:64"}, Samples: 1, Dim: 3}},
		{"both grid forms", CampaignRequest{Workloads: []string{"uniform:2:64"}, Densities: []int{2}, Sizes: []int64{64}, Samples: 1, Dim: 3}},
		{"density too high", CampaignRequest{Workloads: []string{"uniform:8:64"}, Samples: 1, Dim: 3}},
		{"oversized halo grid", CampaignRequest{Workloads: []string{"halo:4096x4096:8"}, Samples: 1, Dim: 3}},
		{"halo extent over cap", CampaignRequest{Workloads: []string{"halo:100000x2:8"}, Samples: 1, Dim: 3}},
		{"bytes over service cap", CampaignRequest{Workloads: []string{"uniform:2:33554433"}, Samples: 1, Dim: 3}},
		{"aggregated message over cap", CampaignRequest{Workloads: []string{"halo:2048x1024:16777216"}, Samples: 1, Dim: 3}},
		{"spmv nnz over cap", CampaignRequest{Workloads: []string{"spmv:100000:8"}, Samples: 1, Dim: 3}},
		{"transpose on non-square", CampaignRequest{Workloads: []string{"transpose:64"}, Samples: 1, Dim: 3}},
		{"shift multiple of n", CampaignRequest{Workloads: []string{"shift:8:64"}, Samples: 1, Dim: 3}},
		{"stencil smaller than machine", CampaignRequest{Workloads: []string{"stencil3d:1x1x2:64"}, Samples: 1, Dim: 3}},
		{"negative bytes", CampaignRequest{Workloads: []string{"perm:-4"}, Samples: 1, Dim: 3}},
		{"empty workload", CampaignRequest{Workloads: []string{""}, Samples: 1, Dim: 3}},
	}
	for _, c := range cases {
		if status, raw := postJSON(t, ts.URL+"/v1/campaign", c.req, nil); status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", c.name, status, raw)
		}
	}
}

// TestScheduleWorkloadEndpoint drives /v1/schedule with a generated
// workload: the spec replaces the matrix, the pattern derives from the
// content hash (deterministic across servers), and the alias spelling
// shares the canonical cache key.
func TestScheduleWorkloadEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	req := ScheduleRequest{
		Workload:  "halo:8x8:512",
		Algorithm: "RS_NL",
		Topology:  &WireTopology{Spec: "torus:8x8"},
	}
	var env Envelope
	status, raw := postJSON(t, ts.URL+"/v1/schedule", req, &env)
	if status != http.StatusOK {
		t.Fatalf("schedule workload: status %d: %s", status, raw)
	}
	var res ScheduleResult
	if err := json.Unmarshal(env.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Workload != "halo:8x8:512" {
		t.Errorf("result workload %q", res.Workload)
	}
	if res.Matrix == nil || res.Matrix.N != 64 || len(res.Matrix.Messages) == 0 {
		t.Fatalf("result does not echo the generated matrix: %+v", res.Matrix)
	}
	if res.Schedule == nil || len(res.Schedule.Phases) == 0 {
		t.Fatal("no schedule produced")
	}
	if !res.LinkFree {
		t.Error("RS_NL schedule not link-free on its torus")
	}

	// Same request on a fresh server: identical key and identical bytes
	// (the pattern derives from the content hash, not server state).
	_, ts2 := newTestServer(t, Options{Workers: 1})
	var env2 Envelope
	if status, raw := postJSON(t, ts2.URL+"/v1/schedule", req, &env2); status != http.StatusOK {
		t.Fatalf("second server: status %d: %s", status, raw)
	}
	if env2.Key != env.Key {
		t.Errorf("fresh server computed key %s, first said %s", env2.Key, env.Key)
	}
	if string(env2.Result) != string(env.Result) {
		t.Error("fresh server produced different result bytes for the identical workload request")
	}

	// The dregular alias shares the canonical uniform cache slot.
	uni := ScheduleRequest{Workload: "uniform:4:1024", Algorithm: "RS_N", Topology: &WireTopology{Spec: "cube:4"}}
	ali := ScheduleRequest{Workload: "dregular:4:1024", Algorithm: "RS_N", Topology: &WireTopology{Spec: "cube:4"}}
	var uniEnv, aliEnv Envelope
	postJSON(t, ts.URL+"/v1/schedule", uni, &uniEnv)
	postJSON(t, ts.URL+"/v1/schedule", ali, &aliEnv)
	if uniEnv.Key != aliEnv.Key {
		t.Errorf("dregular alias keyed %s, uniform %s", aliEnv.Key, uniEnv.Key)
	}
	if !aliEnv.Cached {
		t.Error("alias request missed the canonical cache slot")
	}
}

// TestScheduleWorkloadBadRequests: the schedule endpoint's workload
// gates — exclusivity with matrix, the explicit-topology requirement,
// and the spec caps — all answer 400.
func TestScheduleWorkloadBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	mj := testMatrix(t, 8, 2, 64, 5)
	cases := []struct {
		name string
		req  ScheduleRequest
	}{
		{"workload plus matrix", ScheduleRequest{Workload: "uniform:2:64", Matrix: mj, Topology: &WireTopology{Spec: "cube:3"}}},
		{"workload without topology", ScheduleRequest{Workload: "uniform:2:64"}},
		{"malformed spec", ScheduleRequest{Workload: "uniform:64", Topology: &WireTopology{Spec: "cube:3"}}},
		{"density over machine", ScheduleRequest{Workload: "uniform:8:64", Topology: &WireTopology{Spec: "cube:3"}}},
		{"oversized grid", ScheduleRequest{Workload: "halo:4096x4096:8", Topology: &WireTopology{Spec: "cube:3"}}},
		{"bytes over cap", ScheduleRequest{Workload: "perm:33554433", Topology: &WireTopology{Spec: "cube:3"}}},
		{"bitcomp on odd machine", ScheduleRequest{Workload: "bitcomp:64", Topology: &WireTopology{Spec: "ring:6"}}},
		// Two strips of a 2x4096 halo meet along its 4096-element axis:
		// a 2.8 GB message, though 16 MiB bounds it along the other.
		{"halo message over cap", ScheduleRequest{Workload: "halo:2x4096:524288", Topology: &WireTopology{Spec: "cube:1"}}},
	}
	for _, c := range cases {
		if status, raw := postJSON(t, ts.URL+"/v1/schedule", c.req, nil); status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", c.name, status, raw)
		}
	}
}

// TestCampaignClassicKeysUnchangedByWorkloadAxis: a classic
// densities x sizes request must hash exactly as it did before the
// workloads field existed — the cache/identity contract across
// versions. The pinned key was computed from the pre-workload hashing
// scheme (grid lengths and values, samples, seed, params, topology).
func TestCampaignClassicKeysUnchangedByWorkloadAxis(t *testing.T) {
	req := CampaignRequest{Densities: []int{2, 4}, Sizes: []int64{64, 1024}, Samples: 2, Seed: 7, Dim: 3}
	d := comm.NewDigest()
	d.String("campaign/v1")
	d.Int64(2)
	d.Int64(2)
	d.Int64(4)
	d.Int64(2)
	d.Int64(64)
	d.Int64(1024)
	d.Int64(2)
	d.Int64(7)
	d.String("ipsc860")
	d.String("topology")
	d.String(hypercube.MustNew(3).Name())
	if got := campaignKeyFor(t, &req); got != d.Hex() {
		t.Errorf("classic campaign key %s, want the historical %s", got, d.Hex())
	}
}

// TestScheduleSimulateHugeTopology is the route-cap lift end to end: a
// 4096-node torus — whose dense route table (~545M hops) the old
// footprint gate answered 400 — must schedule AND simulate through the
// synchronous API. The shared table cache serves it lazily, and the
// worker builds (without caching) a 4096-node machine over it.
func TestScheduleSimulateHugeTopology(t *testing.T) {
	if testing.Short() {
		t.Skip("4096-node machine build is too heavy for -short")
	}
	_, ts := newTestServer(t, Options{Workers: 1})
	topoSpec := &WireTopology{Spec: "torus:64x64"}

	var env Envelope
	status, raw := postJSON(t, ts.URL+"/v1/schedule",
		ScheduleRequest{Workload: "perm:512", Algorithm: "GREEDY", Topology: topoSpec}, &env)
	if status != http.StatusOK {
		t.Fatalf("schedule on torus:64x64: status %d: %s", status, raw)
	}
	var schedRes ScheduleResult
	if err := json.Unmarshal(env.Result, &schedRes); err != nil {
		t.Fatal(err)
	}
	if schedRes.Schedule == nil || schedRes.Schedule.N != 4096 {
		t.Fatalf("bad schedule: %s", env.Result)
	}

	var simEnv Envelope
	status, raw = postJSON(t, ts.URL+"/v1/simulate",
		SimulateRequest{Schedule: schedRes.Schedule, Topology: topoSpec}, &simEnv)
	if status != http.StatusOK {
		t.Fatalf("simulate on torus:64x64: status %d: %s", status, raw)
	}
	var simRes SimulateResult
	if err := json.Unmarshal(simEnv.Result, &simRes); err != nil {
		t.Fatal(err)
	}
	if simRes.MakespanUS <= 0 {
		t.Errorf("4096-node simulate returned makespan %v", simRes.MakespanUS)
	}
}

// TestSimulateErrorMapsEventLimit pins the runaway-simulation error
// contract: a *des.LimitError anywhere in a Run error chain becomes a
// 422 with the stable simulation_limit code — a client fault, not a
// 500 — and every other failure passes through untouched.
func TestSimulateErrorMapsEventLimit(t *testing.T) {
	wrapped := fmt.Errorf("ipsc: %w", &des.LimitError{MaxEvents: 1000, Now: 42})
	ae, ok := simulateError(wrapped).(*apiError)
	if !ok {
		t.Fatalf("LimitError did not map to an apiError")
	}
	if ae.status != http.StatusUnprocessableEntity || ae.Code() != CodeSimulationLimit {
		t.Errorf("LimitError mapped to status %d code %q, want 422 %q", ae.status, ae.Code(), CodeSimulationLimit)
	}
	if !strings.Contains(ae.msg, "1000") {
		t.Errorf("mapped message %q does not name the bound", ae.msg)
	}
	plain := errors.New("some other failure")
	if got := simulateError(plain); got != plain {
		t.Errorf("non-limit error rewritten: %v", got)
	}
}
