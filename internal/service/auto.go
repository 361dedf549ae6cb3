package service

// Resolution of algorithm "auto": the portfolio meta-scheduler. An
// auto request is mapped to a concrete algorithm tag BEFORE its
// content-hash key is computed, so the resolved request is
// indistinguishable — same cache slot, same ETag, same bytes — from a
// client that asked for that tag directly. The mapping itself comes
// from the calibrated quality model (Options.QualityStore) when the
// daemon has one, and from the committed fallback table otherwise;
// both are deterministic functions of the request's features, which is
// what keeps two servers sharing a calibration store bit-identical.
//
// With auto_race set, the top-ranked candidates are additionally
// computed and scored — simulated makespan plus modeled scheduling
// time — and the best one answers. Each candidate runs under its own
// content key, so a race is never wasted work: every lane lands in the
// memoization cache exactly as a direct request would.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"

	"unsched/internal/comm"
	"unsched/internal/expt"
	"unsched/internal/quality"
	"unsched/internal/sched"
	"unsched/internal/topo"
)

// qualityModel returns the current calibration model; nil (no store
// configured, or an empty one) is a valid model that answers every
// Pick from the committed fallback chain.
func (s *Server) qualityModel() *quality.Model {
	return s.quality.Load()
}

// resolveAuto maps "auto" to a concrete algorithm tag for a request
// on net with the given features, and returns that tag's job; m is the
// request's matrix (nil for a workload request), and jobFor builds the
// job a concrete tag gets, so race lanes are keyed exactly as direct
// requests are. Without racing, the answer is the model's top pick — a
// pure function of (topology name, features), computed before any key
// is derived. With racing, the top-ranked candidates (at most three)
// are computed and scored on the worker pool, and the cheapest
// deterministic winner is returned; lanes that fail (shed under load,
// unschedulable, or a cached record without a schedule) drop out of
// the race rather than failing the request, and losing the whole race
// falls back to the model's pick.
func (s *Server) resolveAuto(ctx context.Context, net topo.Topology, m *comm.Matrix, f sched.Features, race bool, jobFor func(tag string) job) job {
	ranked := s.qualityModel().Pick(net.Name(), f)
	chosen := ranked[0]
	if race && len(ranked) > 1 {
		if winner, ok := s.raceAuto(ctx, net, m, ranked[:min(3, len(ranked))], jobFor); ok {
			chosen = winner
			s.autoRaceWins.inc(winner)
		}
	}
	s.autoResolved.inc(chosen)
	j := jobFor(chosen)
	j.auto = true
	return j
}

// raceAuto computes every candidate under its own content key and
// scores it with scoreSchedule. The winner is the lowest score, ties
// broken on the tag — a total deterministic order, so two servers
// racing the same request crown the same winner.
func (s *Server) raceAuto(ctx context.Context, net topo.Topology, m *comm.Matrix, candidates []string, jobFor func(tag string) job) (string, bool) {
	type lane struct {
		score float64
		ok    bool
	}
	lanes := make([]lane, len(candidates))
	var wg sync.WaitGroup
	for i, tag := range candidates {
		wg.Add(1)
		go func(i int, tag string) {
			defer wg.Done()
			raw, _, err := s.memoized(ctx, jobFor(tag), encJSON, false)
			if err != nil {
				return
			}
			var res ScheduleResult
			if json.Unmarshal(raw, &res) != nil {
				return
			}
			score, err := s.scoreSchedule(ctx, net, m, &res)
			if err != nil {
				return
			}
			lanes[i] = lane{score: score, ok: true}
		}(i, tag)
	}
	wg.Wait()
	best := -1
	for i := range lanes {
		if !lanes[i].ok {
			continue
		}
		if best < 0 || lanes[i].score < lanes[best].score ||
			(lanes[i].score == lanes[best].score && candidates[i] < candidates[best]) {
			best = i
		}
	}
	if best < 0 {
		return "", false
	}
	return candidates[best], true
}

// scoreSchedule prices one race lane: the schedule's simulated
// makespan on the default machine model plus its modeled scheduling
// time — the same total the quality store's records carry, so racing
// and calibration agree on what "best" means. The makespan is the one
// /v1/simulate answers for the lane with the default params and
// protocol: the schedule, or for an AC lane the matrix (workload lanes
// find it echoed in the result), resolved against the schedule
// request's own net and m. It runs on a pool worker, reusing its
// machines, but is not memoized: scoring adds no cache entry and
// moves no simulate counter. A lane record without a schedule — the
// cache admits any JSON from a PUT, a peer or the disk — cannot be
// priced and drops out, as does one sized for another machine (the
// simulator rejects it).
func (s *Server) scoreSchedule(ctx context.Context, net topo.Topology, m *comm.Matrix, res *ScheduleResult) (float64, error) {
	if res.Schedule == nil {
		return 0, errors.New("race lane: cached result carries no schedule")
	}
	req := SimulateRequest{Schedule: res.Schedule}
	if m == nil && isACRun(res.Schedule) {
		req.Matrix = res.Matrix
	}
	sim, err := resolveSimulation(&req, net, m)
	if err != nil {
		return 0, err
	}
	doc, err := s.runTask(ctx, sim.run, false)
	if err != nil {
		return 0, err
	}
	return doc.(*SimulateResult).MakespanUS + float64(sim.params.CompTimeNS(res.Schedule.Ops))/1000, nil
}

// tagCounters is a per-algorithm-tag counter family for /metrics. A
// mutexed map, not atomics: auto resolution happens once per uncached
// request, far off any hot path, and the tag set is open-ended (the
// fallback table may rank tags the compiled-in list does not know).
type tagCounters struct {
	mu sync.Mutex
	m  map[string]int64
}

func (c *tagCounters) inc(tag string) {
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[string]int64)
	}
	c.m[tag]++
	c.mu.Unlock()
}

// samples returns the counter family as one sample per tag, sorted,
// over the union of the campaign contenders — always emitted, zero or
// not, so scrapers see a stable base series set — and any other tag
// that has actually counted.
func (c *tagCounters) samples() []sample {
	c.mu.Lock()
	tags := make(map[string]int64, len(expt.Algorithms)+len(c.m))
	for _, a := range expt.Algorithms {
		tags[string(a)] = 0
	}
	for t, v := range c.m {
		tags[t] = v
	}
	c.mu.Unlock()
	names := make([]string, 0, len(tags))
	for t := range tags {
		names = append(names, t)
	}
	sort.Strings(names)
	out := make([]sample, len(names))
	for i, t := range names {
		out[i] = sample{fmt.Sprintf("{algorithm=%q}", t), tags[t]}
	}
	return out
}
