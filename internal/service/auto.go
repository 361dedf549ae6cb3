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
	"sort"
	"sync"

	"unsched/internal/comm"
	"unsched/internal/costmodel"
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

// autoJob builds the content key and compute closure a concrete
// algorithm tag would get for the request being resolved. resolveAuto
// uses it to key race lanes exactly as direct requests are keyed.
type autoJob func(tag string) (key string, compute func(wk *worker) (wireDoc, error))

// resolveAuto maps "auto" to a concrete algorithm tag for a request
// with the given features. Without racing, the answer is the model's
// top pick — a pure function of (topology name, features), computed
// before any key is derived. With racing, the top-ranked candidates
// (at most three) are computed and scored on the worker pool, and the
// cheapest deterministic winner is returned; lanes that fail (shed
// under load, or unschedulable) drop out of the race rather than
// failing the request, and losing the whole race falls back to the
// model's pick.
func (s *Server) resolveAuto(ctx context.Context, net topo.Topology, m *comm.Matrix, f sched.Features, race bool, job autoJob) string {
	ranked := s.qualityModel().Pick(net.Name(), f)
	chosen := ranked[0]
	if race && len(ranked) > 1 {
		if winner, ok := s.raceAuto(ctx, net, m, ranked[:min(3, len(ranked))], job); ok {
			chosen = winner
			s.autoRaceWins.inc(winner)
		}
	}
	s.autoResolved.inc(chosen)
	return chosen
}

// raceAuto computes every candidate under its own content key and
// scores it with scoreSchedule. The winner is the lowest score, ties
// broken on the tag — a total deterministic order, so two servers
// racing the same request crown the same winner.
func (s *Server) raceAuto(ctx context.Context, net topo.Topology, m *comm.Matrix, candidates []string, job autoJob) (string, bool) {
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
			key, compute := job(tag)
			raw, _, err := s.memoized(ctx, epSchedule, key, encJSON, false, decodeScheduleDoc, compute)
			if err != nil {
				return
			}
			var res ScheduleResult
			if json.Unmarshal(raw, &res) != nil {
				return
			}
			score, err := s.scoreSchedule(net, m, &res)
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
// and calibration agree on what "best" means. AC lanes (no phases)
// are driven by the matrix; workload lanes find it echoed in the
// result. The simulation runs on a pool worker, reusing its machines.
func (s *Server) scoreSchedule(net topo.Topology, m *comm.Matrix, res *ScheduleResult) (float64, error) {
	const paramsName = "ipsc860"
	params := costmodel.DefaultIPSC860()
	var (
		score  float64
		runErr error
	)
	err := s.runTask(func(wk *worker) {
		mach, err := wk.machine(net, paramsName, params)
		if err != nil {
			runErr = err
			return
		}
		if isACRun(res.Schedule) {
			if m == nil {
				if m, err = resolveMatrix(res.Matrix); err != nil {
					runErr = err
					return
				}
			}
			r, err := simulate(mach, "AC", nil, m)
			if err != nil {
				runErr = err
				return
			}
			score = r.MakespanUS
			return
		}
		sc, err := resolveSchedule(res.Schedule)
		if err != nil {
			runErr = err
			return
		}
		protocol, err := resolveProtocol("", false, sc)
		if err != nil {
			runErr = err
			return
		}
		r, err := simulate(mach, protocol, sc, nil)
		if err != nil {
			runErr = err
			return
		}
		score = r.MakespanUS + float64(params.CompTimeNS(sc.Ops))/1000
	})
	if err != nil {
		return 0, err
	}
	return score, runErr
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

// series returns the counter family as sorted (tag, value) pairs over
// the union of the campaign contenders — always emitted, zero or not,
// so scrapers see a stable base series set — and any other tag that
// has actually counted.
func (c *tagCounters) series() ([]string, []int64) {
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
	vals := make([]int64, len(names))
	for i, t := range names {
		vals[i] = tags[t]
	}
	return names, vals
}
