package service

// Tests for algorithm "auto": the portfolio meta-scheduler backed by
// the quality calibration store. The load-bearing property is
// bit-identity — auto must resolve BEFORE fingerprinting, so an auto
// request is indistinguishable from the equivalent direct request on
// any server sharing the calibration store.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"unsched/internal/costmodel"
	"unsched/internal/hypercube"
	"unsched/internal/quality"
	"unsched/internal/sched"
)

// seededRecords calibrate the hypercube/n4/d3/cv0 bin (the bin of
// testMatrix(16, 4, ...)) to rank RS_N first — the opposite of the
// committed fallback's RS_NL — so a test can tell the model answered,
// not the fallback table.
var seededRecords = []quality.Record{
	{Topology: "hypercube-4", Workload: "uniform:4:4096", Algorithm: "RS_N",
		Nodes: 16, Density: 4, Phases: 5, EstCommUS: 900, SchedCostNS: 40000, Samples: 2},
	{Topology: "hypercube-4", Workload: "uniform:4:4096", Algorithm: "RS_NL",
		Nodes: 16, Density: 4, Phases: 5, EstCommUS: 950, SchedCostNS: 220000, Samples: 2},
	{Topology: "hypercube-4", Workload: "uniform:4:4096", Algorithm: "AC",
		Nodes: 16, Density: 4, Phases: 0, EstCommUS: 8000, SchedCostNS: 0, Samples: 2},
}

// seedQualityStore writes a calibration store of seededRecords.
func seedQualityStore(t *testing.T, path string) {
	t.Helper()
	st, err := quality.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range seededRecords {
		if err := st.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

func scheduleResult(t *testing.T, env Envelope) ScheduleResult {
	t.Helper()
	var res ScheduleResult
	if err := json.Unmarshal(env.Result, &res); err != nil {
		t.Fatalf("bad result document: %v", err)
	}
	return res
}

// TestAutoResolvesBeforeFingerprinting: an auto request and the direct
// request for the tag auto resolves to must share one cache key and
// one byte-identical result document.
func TestAutoResolvesBeforeFingerprinting(t *testing.T) {
	dir := t.TempDir()
	qpath := filepath.Join(dir, "quality.usqr")
	seedQualityStore(t, qpath)
	_, ts := newTestServer(t, Options{Workers: 2, QualityStore: qpath})

	auto := ScheduleRequest{Matrix: testMatrix(t, 16, 4, 4096, 1), Algorithm: "auto"}
	var autoEnv Envelope
	if status, raw := postJSON(t, ts.URL+"/v1/schedule", auto, &autoEnv); status != http.StatusOK {
		t.Fatalf("auto: status %d (%s)", status, raw)
	}
	res := scheduleResult(t, autoEnv)
	if res.Chosen != "RS_N" {
		t.Fatalf("auto chose %q, want the calibrated bin's RS_N", res.Chosen)
	}

	direct := auto
	direct.Algorithm = res.Chosen
	var directEnv Envelope
	if status, raw := postJSON(t, ts.URL+"/v1/schedule", direct, &directEnv); status != http.StatusOK {
		t.Fatalf("direct: status %d (%s)", status, raw)
	}
	if directEnv.Key != autoEnv.Key {
		t.Errorf("auto key %s != direct key %s", autoEnv.Key, directEnv.Key)
	}
	if string(directEnv.Result) != string(autoEnv.Result) {
		t.Error("auto and direct result bytes differ")
	}
	if !directEnv.Cached {
		t.Error("direct request missed the cache slot the auto request filled")
	}
}

// TestAutoBitIdenticalAcrossServers: the tentpole's cross-server
// property. Two servers sharing one calibration store (and one disk
// cache) must resolve the same auto request to the same key and the
// same bytes — and the second server, warm-started from the shared
// cache, must answer without a single cache miss.
func TestAutoBitIdenticalAcrossServers(t *testing.T) {
	dir := t.TempDir()
	qpath := filepath.Join(dir, "quality.usqr")
	cacheDir := filepath.Join(dir, "cache")
	seedQualityStore(t, qpath)
	opts := Options{Workers: 2, QualityStore: qpath, CacheDir: cacheDir}

	req := ScheduleRequest{Matrix: testMatrix(t, 16, 4, 4096, 9), Algorithm: "auto", Seed: 3}
	workloadReq := ScheduleRequest{
		Workload:  "uniform:4:4096",
		Algorithm: "auto",
		Topology:  &WireTopology{Spec: "cube:4"},
	}

	svcA, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(svcA)
	var envA, wenvA Envelope
	if status, raw := postJSON(t, tsA.URL+"/v1/schedule", req, &envA); status != http.StatusOK {
		t.Fatalf("server A: status %d (%s)", status, raw)
	}
	if status, raw := postJSON(t, tsA.URL+"/v1/schedule", workloadReq, &wenvA); status != http.StatusOK {
		t.Fatalf("server A workload: status %d (%s)", status, raw)
	}
	tsA.Close()
	svcA.Close() // flushes the disk cache

	svcB, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	tsB := httptest.NewServer(svcB)
	defer func() { tsB.Close(); svcB.Close() }()
	var envB, wenvB Envelope
	if status, raw := postJSON(t, tsB.URL+"/v1/schedule", req, &envB); status != http.StatusOK {
		t.Fatalf("server B: status %d (%s)", status, raw)
	}
	if status, raw := postJSON(t, tsB.URL+"/v1/schedule", workloadReq, &wenvB); status != http.StatusOK {
		t.Fatalf("server B workload: status %d (%s)", status, raw)
	}

	if envB.Key != envA.Key || string(envB.Result) != string(envA.Result) {
		t.Error("matrix auto request is not bit-identical across servers")
	}
	if wenvB.Key != wenvA.Key || string(wenvB.Result) != string(wenvA.Result) {
		t.Error("workload auto request is not bit-identical across servers")
	}
	if misses := svcB.cacheMisses[epSchedule].Load(); misses != 0 {
		t.Errorf("server B recomputed: %d cache misses, want 0 (auto must hit the warm-started slots)", misses)
	}
	if resA, resB := scheduleResult(t, envA), scheduleResult(t, envB); resA.Chosen != resB.Chosen {
		t.Errorf("servers chose different algorithms: %q vs %q", resA.Chosen, resB.Chosen)
	}
}

// TestAutoEmptyStoreFallsBack: without a calibration store the model
// is nil and auto must resolve from the committed fallback chain —
// deterministically, to RS_NL for an uncalibrated long-message bin.
func TestAutoEmptyStoreFallsBack(t *testing.T) {
	svc, ts := newTestServer(t, Options{Workers: 2})
	req := ScheduleRequest{Matrix: testMatrix(t, 16, 4, 4096, 5)} // algorithm defaults to auto
	var env Envelope
	if status, raw := postJSON(t, ts.URL+"/v1/schedule", req, &env); status != http.StatusOK {
		t.Fatalf("status %d (%s)", status, raw)
	}
	if res := scheduleResult(t, env); res.Chosen != "RS_NL" {
		t.Errorf("empty-store auto chose %q, want the fallback's RS_NL", res.Chosen)
	}

	// The resolution counter says what happened.
	status, raw := getJSON(t, ts.URL+"/metrics", nil)
	if status != http.StatusOK {
		t.Fatal("metrics endpoint failed")
	}
	if want := `unschedd_auto_resolved_total{algorithm="RS_NL"} 1`; !strings.Contains(string(raw), want) {
		t.Errorf("metrics missing %q", want)
	}
	_ = svc
}

// TestAutoRaceDeterministicWinner: auto_race must answer with a
// concrete candidate whose bytes are exactly the direct request's,
// crown the same winner on a repeat run, and count the win.
func TestAutoRaceDeterministicWinner(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 4, QueueDepth: 32})
	req := ScheduleRequest{Matrix: testMatrix(t, 16, 4, 4096, 7), Algorithm: "auto", AutoRace: true}
	var env Envelope
	if status, raw := postJSON(t, ts.URL+"/v1/schedule", req, &env); status != http.StatusOK {
		t.Fatalf("race: status %d (%s)", status, raw)
	}
	res := scheduleResult(t, env)
	if res.Chosen == "" || res.Chosen == "auto" {
		t.Fatalf("race answered with non-concrete algorithm %q", res.Chosen)
	}

	// Identical race on a fresh server: same winner (scores and
	// tie-breaks are pure functions of the request).
	_, ts2 := newTestServer(t, Options{Workers: 4, QueueDepth: 32})
	var env2 Envelope
	if status, raw := postJSON(t, ts2.URL+"/v1/schedule", req, &env2); status != http.StatusOK {
		t.Fatalf("race rerun: status %d (%s)", status, raw)
	}
	if res2 := scheduleResult(t, env2); res2.Chosen != res.Chosen {
		t.Errorf("race winners differ across servers: %q vs %q", res.Chosen, res2.Chosen)
	}
	if env2.Key != env.Key || string(env2.Result) != string(env.Result) {
		t.Error("race responses are not bit-identical across servers")
	}

	// The winner's bytes are the direct request's bytes.
	direct := req
	direct.Algorithm = res.Chosen
	direct.AutoRace = false
	var directEnv Envelope
	if status, _ := postJSON(t, ts.URL+"/v1/schedule", direct, &directEnv); status != http.StatusOK {
		t.Fatal("direct request failed")
	}
	if directEnv.Key != env.Key || string(directEnv.Result) != string(env.Result) {
		t.Error("race winner differs from the direct request")
	}

	// One race, one win on the counter.
	_, raw := getJSON(t, ts.URL+"/metrics", nil)
	if want := fmt.Sprintf("unschedd_auto_race_wins_total{algorithm=%q} 1", res.Chosen); !strings.Contains(string(raw), want) {
		t.Errorf("metrics missing %q", want)
	}
}

// TestAutoRaceWinsOnSimulatedCost: the race crowns the cheapest of the
// model's top three candidates, priced exactly as a client would price
// them — each scheduled directly, then simulated through /v1/simulate
// with the default params and protocol, and charged makespan_us plus
// CompTimeNS(ops)/1000, ties broken on the tag. The fallback table
// races an LP lane and crowns a tag it did not rank first; the seeded
// store races an AC lane, which is simulated from the matrix. Scoring
// is not a simulate request: it adds no cache entry and moves no
// simulate hit/miss counter.
func TestAutoRaceWinsOnSimulatedCost(t *testing.T) {
	for _, calibrated := range []bool{false, true} {
		t.Run(fmt.Sprintf("calibrated=%v", calibrated), func(t *testing.T) {
			opts := Options{Workers: 4, QueueDepth: 32}
			if calibrated {
				opts.QualityStore = filepath.Join(t.TempDir(), "quality.usqr")
				seedQualityStore(t, opts.QualityStore)
			}
			svc, ts := newTestServer(t, opts)
			mj := testMatrix(t, 16, 4, 4096, 5)
			m, err := resolveMatrix(mj)
			if err != nil {
				t.Fatal(err)
			}
			ranked := svc.qualityModel().Pick(hypercube.MustNew(4).Name(), sched.MeasureFeatures(m))
			if len(ranked) < 3 {
				t.Fatalf("model ranks %v: want three lanes to race", ranked)
			}
			candidates := ranked[:3]

			var env Envelope
			race := ScheduleRequest{Matrix: mj, Algorithm: "auto", AutoRace: true}
			if status, raw := postJSON(t, ts.URL+"/v1/schedule", race, &env); status != http.StatusOK {
				t.Fatalf("race: status %d (%s)", status, raw)
			}
			if got := svc.cacheHits[epSimulate].Load() + svc.cacheMisses[epSimulate].Load(); got != 0 {
				t.Errorf("race scoring moved the simulate hit/miss counters by %d", got)
			}
			if got := svc.cache.len(); got != len(candidates) {
				t.Errorf("race left %d cache entries, want one per lane (%d)", got, len(candidates))
			}

			params := costmodel.DefaultIPSC860()
			best, bestScore := "", 0.0
			for _, tag := range candidates {
				var denv, senv Envelope
				direct := ScheduleRequest{Matrix: mj, Algorithm: tag}
				if status, raw := postJSON(t, ts.URL+"/v1/schedule", direct, &denv); status != http.StatusOK {
					t.Fatalf("%s: status %d (%s)", tag, status, raw)
				}
				res := scheduleResult(t, denv)
				sim := SimulateRequest{Schedule: res.Schedule}
				if tag == "AC" {
					sim.Matrix = mj
				}
				if status, raw := postJSON(t, ts.URL+"/v1/simulate", sim, &senv); status != http.StatusOK {
					t.Fatalf("%s simulate: status %d (%s)", tag, status, raw)
				}
				var sr SimulateResult
				if err := json.Unmarshal(senv.Result, &sr); err != nil {
					t.Fatal(err)
				}
				score := sr.MakespanUS + float64(params.CompTimeNS(res.Schedule.Ops))/1000
				t.Logf("%s: makespan %.1f us, ops %d, score %.1f", tag, sr.MakespanUS, res.Schedule.Ops, score)
				if best == "" || score < bestScore || (score == bestScore && tag < best) {
					best, bestScore = tag, score
				}
			}
			if got := scheduleResult(t, env).Chosen; got != best {
				t.Errorf("race crowned %s, want the cheapest lane %s", got, best)
			}
		})
	}
}

// TestAutoRaceDropsUnpriceableLaneRecords: the memo cache admits any
// JSON record — a PUT /v1/cache/{key}, a fleet peer, a warm load — so
// a race lane can find a result without a schedule, or with a schedule
// for another machine size, under its key. Such a lane cannot be
// priced: it drops out of the race, the request still answers 200 with
// another lane's result, and the daemon stays up.
func TestAutoRaceDropsUnpriceableLaneRecords(t *testing.T) {
	mj := testMatrix(t, 16, 4, 4096, 5)
	m, err := resolveMatrix(mj)
	if err != nil {
		t.Fatal(err)
	}
	// No quality store: the lanes are the fallback table's top three.
	ranked := (*quality.Model)(nil).Pick(hypercube.MustNew(4).Name(), sched.MeasureFeatures(m))
	if len(ranked) < 3 {
		t.Fatalf("model ranks %v: want three lanes to race", ranked)
	}
	for _, tag := range ranked[:3] {
		for _, record := range []string{
			`{}`,
			`null`,
			`{"chosen":"` + tag + `","topology":"hypercube-4"}`,
			`{"chosen":"RS_N","topology":"hypercube-5","schedule":{"algorithm":"RS_N","n":32,"ops":0,"phases":[]}}`,
		} {
			t.Run(tag+" "+record, func(t *testing.T) {
				svc, ts := newTestServer(t, Options{Workers: 2, QueueDepth: 16})
				lane, err := svc.scheduleJob(context.Background(), &ScheduleRequest{Matrix: mj, Algorithm: tag})
				if err != nil {
					t.Fatal(err)
				}
				svc.cache.put(lane.key, []byte(record))

				var env Envelope
				race := ScheduleRequest{Matrix: mj, Algorithm: "auto", AutoRace: true}
				if status, raw := postJSON(t, ts.URL+"/v1/schedule", race, &env); status != http.StatusOK {
					t.Fatalf("race: status %d (%s)", status, raw)
				}
				if got := scheduleResult(t, env).Chosen; got == tag {
					t.Errorf("race crowned the lane whose record cannot be priced (%s)", tag)
				}
				if status, raw := getJSON(t, ts.URL+"/healthz", nil); status != http.StatusOK {
					t.Fatalf("healthz after the race: status %d (%s)", status, raw)
				}
			})
		}
	}
}

// TestCampaignFeedsQualityStore: campaigns are the calibration loop.
// Running one must append records for every measured (workload,
// algorithm) cell and swap in a model trained on them.
func TestCampaignFeedsQualityStore(t *testing.T) {
	qpath := filepath.Join(t.TempDir(), "quality.usqr")
	svc, ts := newTestServer(t, Options{Workers: 2, QualityStore: qpath})
	if svc.qualityModel().Records() != 0 {
		t.Fatal("model not empty before any campaign")
	}

	var acc CampaignAccepted
	campaign := CampaignRequest{Densities: []int{4}, Sizes: []int64{512}, Samples: 1, Dim: 4}
	if status, raw := postJSON(t, ts.URL+"/v1/campaign", campaign, &acc); status != http.StatusAccepted {
		t.Fatalf("campaign: status %d (%s)", status, raw)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st CampaignStatus
		if status, raw := getJSON(t, ts.URL+acc.URL, &st); status != http.StatusOK {
			t.Fatalf("campaign status: %d (%s)", status, raw)
		} else if st.State == campaignDone {
			break
		} else if st.State == campaignFailed {
			t.Fatalf("campaign failed: %s", st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatal("campaign did not finish")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// runCampaign reloads the model before the job reports done, so the
	// model already reflects the campaign the moment the status reads
	// done: one grid cell, four contenders.
	if got := svc.qualityModel().Records(); got != 4 {
		t.Errorf("model holds %d records when the campaign reads done, want 4", got)
	}
	recs, err := quality.Load(qpath)
	if err != nil || len(recs) != 4 {
		t.Fatalf("store holds %d records (err %v), want 4", len(recs), err)
	}
	for _, r := range recs {
		if r.Nodes != 16 || r.Workload != "uniform:4:512" || r.Samples != 1 {
			t.Errorf("bad record %+v", r)
		}
	}
}
