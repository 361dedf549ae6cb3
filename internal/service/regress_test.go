package service

// Regression tests for the protocol- and metrics-correctness fixes
// that landed with the disk-backed cache PR. Each test was written
// against the buggy behavior first and verified to fail before the
// fix.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"unsched/internal/sched"
)

// TestSimulateRejectsUnknownScheduleAlgorithm: /v1/simulate must 400 a
// schedule whose algorithm tag is not one the system knows, instead of
// silently running the wrong protocol. Before the fix, resolveProtocol's
// "auto" default mapped any unknown tag — e.g. the typo "RS-NL" — to
// S2, the pairing for RS_N, not the S1 pairing RS_NL schedules are
// meant to run under: a typo changed the measured number instead of
// erroring.
func TestSimulateRejectsUnknownScheduleAlgorithm(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})

	// A structurally valid two-phase schedule wearing a typo'd tag.
	phases := []WirePhase{{{0, 1, 256}}, {{1, 0, 256}}}
	for _, tag := range []string{"RS-NL", "rs_nl", "LPX", "bogus", ""} {
		req := SimulateRequest{Schedule: &WireSchedule{Algorithm: tag, N: 4, Phases: phases}}
		status, raw := postJSON(t, ts.URL+"/v1/simulate", req, nil)
		if status != http.StatusBadRequest {
			t.Errorf("algorithm %q: status %d, want 400 (%s)", tag, status, raw)
		}
	}

	// The canonical spellings still simulate fine.
	for _, tag := range []string{"RS_NL", "RS_N", "GREEDY_LF_LINK"} {
		req := SimulateRequest{Schedule: &WireSchedule{Algorithm: tag, N: 4, Phases: phases}}
		if status, raw := postJSON(t, ts.URL+"/v1/simulate", req, nil); status != http.StatusOK {
			t.Errorf("algorithm %q: status %d, want 200 (%s)", tag, status, raw)
		}
	}

	// An AC tag with phases is contradictory (AC runs are driven by the
	// matrix, not a phase list) and must be rejected too.
	req := SimulateRequest{Schedule: &WireSchedule{Algorithm: "AC", N: 4, Phases: phases}}
	if status, raw := postJSON(t, ts.URL+"/v1/simulate", req, nil); status != http.StatusBadRequest {
		t.Errorf("AC schedule with phases: status %d, want 400 (%s)", status, raw)
	}
}

// TestUnknownScheduleAlgorithmErrorListsEveryKnownTag: the 400 for an
// unknown algorithm must name every tag the service actually accepts.
// Before the fix the simulate want-list omitted AC even though the
// service accepted it: a client sending the lowercase typo "ac" was
// told AC does not exist. Both endpoints' want-lists are generated
// from the algorithm table, and the test ranges over the table
// itself, so the messages and the accepted set cannot drift apart
// again. The simulate message predates the table and is also pinned
// byte for byte.
func TestUnknownScheduleAlgorithmErrorListsEveryKnownTag(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	var tags []string
	for _, alg := range sched.Algorithms {
		tags = append(tags, alg.Tag)
	}
	// offered parses the alternatives out of "... (want a, b, or c)".
	offered := func(msg string) []string {
		_, list, _ := strings.Cut(msg, "(want ")
		var out []string
		for _, tag := range strings.Split(strings.TrimSuffix(list, ")"), ", ") {
			out = append(out, strings.TrimPrefix(tag, "or "))
		}
		return out
	}

	var sim ErrorEnvelope
	status, raw := postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{Schedule: &WireSchedule{
		Algorithm: "ac", N: 4, Phases: []WirePhase{{{0, 1, 256}}},
	}}, &sim)
	if status != http.StatusBadRequest {
		t.Fatalf("simulate: status %d, want 400 (%s)", status, raw)
	}
	const simWant = `unknown schedule algorithm "ac" (want AC, LP, RS_N, RS_NL, RS_NL_SZ, GREEDY, GREEDY_LF, or GREEDY_LF_LINK)`
	if sim.Error != simWant {
		t.Errorf("simulate error %q, want %q", sim.Error, simWant)
	}
	if got := offered(sim.Error); !slices.Equal(got, tags) {
		t.Errorf("simulate offers %q, want the table's %q", got, tags)
	}

	var sch ErrorEnvelope
	status, raw = postJSON(t, ts.URL+"/v1/schedule", ScheduleRequest{Algorithm: "ac"}, &sch)
	if status != http.StatusBadRequest || sch.Err.Code != CodeUnknownAlgorithm {
		t.Fatalf("schedule: status %d code %q, want 400 %s (%s)", status, sch.Err.Code, CodeUnknownAlgorithm, raw)
	}
	if got, want := offered(sch.Error), append([]string{"auto"}, tags...); !slices.Equal(got, want) {
		t.Errorf("schedule offers %q, want %q", got, want)
	}
}

// TestScheduleServesGreedyLFLink: the service must be able to produce
// every schedule it knows how to simulate. GREEDY_LF_LINK is
// implemented by the core, exported in api.go, and mapped to S1 by
// resolveProtocol — but /v1/schedule rejected it before the fix.
func TestScheduleServesGreedyLFLink(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	req := ScheduleRequest{Matrix: testMatrix(t, 16, 4, 4096, 3), Algorithm: "GREEDY_LF_LINK"}
	var env Envelope
	status, raw := postJSON(t, ts.URL+"/v1/schedule", req, &env)
	if status != http.StatusOK {
		t.Fatalf("GREEDY_LF_LINK: status %d, want 200 (%s)", status, raw)
	}
	var res ScheduleResult
	if err := json.Unmarshal(env.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Chosen != "GREEDY_LF_LINK" || res.Schedule == nil || res.Schedule.Algorithm != "GREEDY_LF_LINK" {
		t.Fatalf("bad result for GREEDY_LF_LINK: %s", env.Result)
	}
	// Link-freedom is the algorithm's whole point.
	if !res.LinkFree {
		t.Error("GREEDY_LF_LINK schedule is not link-free on its cube")
	}

	// Round trip: the schedule it produced simulates under its paper
	// pairing, S1.
	var simEnv Envelope
	status, raw = postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{Schedule: res.Schedule}, &simEnv)
	if status != http.StatusOK {
		t.Fatalf("simulate GREEDY_LF_LINK: status %d (%s)", status, raw)
	}
	var simRes SimulateResult
	if err := json.Unmarshal(simEnv.Result, &simRes); err != nil {
		t.Fatal(err)
	}
	if simRes.Protocol != "S1" {
		t.Errorf("GREEDY_LF_LINK simulated under %s, want S1", simRes.Protocol)
	}
}

// TestFlightFollowersDoNotDistortCacheMetrics: six concurrent
// identical requests, one computation. The metrics must say exactly
// that: one miss (the leader's computation), zero hits (nothing was in
// the cache), five flight-served responses. Before the fix every
// follower's initial cache probe counted a miss — six misses for one
// computation — so the reported hit ratio understated real cache
// behavior, and flight dedupe was invisible. The flight is the content
// key's, whatever the encoding: when the clients alternate JSON and
// binary, one leader still computes for all six. Before flights joined
// on the content key, each encoding's leader computed.
func TestFlightFollowersDoNotDistortCacheMetrics(t *testing.T) {
	for _, tc := range []struct {
		name    string
		accepts []string // client i asks for accepts[i%len(accepts)]
	}{
		{"json", []string{ContentTypeJSON}},
		{"json and binary", []string{ContentTypeJSON, ContentTypeBinary}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4})
			// Park the only worker so all clients pile onto one flight.
			started := make(chan struct{})
			release := make(chan struct{})
			blocker := &task{run: func(*worker) { close(started); <-release }, done: make(chan struct{})}
			if err := svc.pool.submit(blocker); err != nil {
				t.Fatal(err)
			}
			<-started

			req := ScheduleRequest{Matrix: testMatrix(t, 16, 4, 2048, 21), Algorithm: "RS_NL"}
			body, _ := json.Marshal(req)
			const clients = 6
			var wg sync.WaitGroup
			errCh := make(chan error, clients)
			for i := 0; i < clients; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					hreq, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/schedule", bytes.NewReader(body))
					if err != nil {
						errCh <- err
						return
					}
					hreq.Header.Set("Content-Type", "application/json")
					hreq.Header.Set("Accept", tc.accepts[i%len(tc.accepts)])
					resp, err := http.DefaultClient.Do(hreq)
					if err != nil {
						errCh <- err
						return
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						errCh <- fmt.Errorf("client %d: status %d", i, resp.StatusCode)
					}
				}(i)
			}
			time.Sleep(100 * time.Millisecond)
			close(release)
			wg.Wait()
			close(errCh)
			for err := range errCh {
				if err != nil {
					t.Fatal(err)
				}
			}

			if misses := svc.cacheMisses[epSchedule].Load(); misses != 1 {
				t.Errorf("cache misses = %d, want 1 (only the leader computed)", misses)
			}
			if hits := svc.cacheHits[epSchedule].Load(); hits != 0 {
				t.Errorf("cache hits = %d, want 0 (nothing was served from the cache)", hits)
			}
			if dedup := svc.flightDedup.Load(); dedup != clients-1 {
				t.Errorf("flight dedup = %d, want %d followers", dedup, clients-1)
			}

			// A straight repeat now IS a cache hit, and only a hit.
			if status, _ := postJSON(t, ts.URL+"/v1/schedule", req, nil); status != http.StatusOK {
				t.Fatal("repeat request failed")
			}
			if hits := svc.cacheHits[epSchedule].Load(); hits != 1 {
				t.Errorf("cache hits after repeat = %d, want 1", hits)
			}
			if misses := svc.cacheMisses[epSchedule].Load(); misses != 1 {
				t.Errorf("cache misses after repeat = %d, want still 1", misses)
			}
		})
	}
}
