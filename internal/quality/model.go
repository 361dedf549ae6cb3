package quality

import (
	"math/bits"
	"sort"
	"strconv"

	"unsched/internal/sched"
)

// BinKey maps a topology kind and a feature vector to the model's
// bin identifier. Bands are logarithmic — exact node and density
// values inside a band behave alike in the paper's sweeps — and the
// size-CV axis has three bands: uniform (< 0.25), mixed (< 1.0), and
// heavy-tailed (≥ 1.0), the regime where power-law workloads live.
// The string form doubles as the committed fallback table's literal
// key, so a calibration run can be pasted straight into Go source.
func BinKey(topoKind string, f sched.Features) string {
	// Built by hand rather than fmt.Sprintf: BinKey sits on the
	// service's auto-resolution path in front of every request, where
	// Pick is budgeted at well under 1% of the cheapest scheduling run.
	buf := make([]byte, 0, len(topoKind)+16)
	buf = append(buf, topoKind...)
	buf = append(buf, "/n"...)
	buf = strconv.AppendInt(buf, int64(nBand(f.Nodes)), 10)
	buf = append(buf, "/d"...)
	buf = strconv.AppendInt(buf, int64(dBand(f.Density)), 10)
	buf = append(buf, "/cv"...)
	buf = strconv.AppendInt(buf, int64(cvBand(f.SizeCV)), 10)
	return string(buf)
}

// nBand buckets node counts by bit length: 2 → 1, 3–4 → 2, 5–8 → 3,
// ..., so every power of two anchors its own band.
func nBand(n int) int {
	if n < 2 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// dBand buckets densities by bit length: 1 → 1, 2–3 → 2, 4–7 → 3, ...
func dBand(d int) int {
	if d < 1 {
		return 0
	}
	return bits.Len(uint(d))
}

func cvBand(cv float64) int {
	switch {
	case cv < 0.25:
		return 0
	case cv < 1.0:
		return 1
	default:
		return 2
	}
}

// Model answers "which algorithm should schedule this matrix":
// calibration records grouped into feature bins, each bin holding
// the algorithms that were measured there ranked by mean total cost
// (communication + scheduling), ascending, ties broken on the tag.
// A Model is immutable once built and safe for concurrent use.
type Model struct {
	bins    map[string][]string
	records int
}

// NewModel builds a model from loaded records. Within a bin, an
// algorithm measured by several records (different workloads or
// sizes landing in one bin) is scored by its sample-weighted mean
// total cost, so a 200-sample cell outweighs a 2-sample one.
func NewModel(recs []Record) *Model {
	type agg struct {
		cost    float64
		samples float64
	}
	group := make(map[string]map[string]*agg)
	for _, r := range recs {
		key := BinKey(TopoKind(r.Topology), sched.Features{Nodes: r.Nodes, Density: r.Density, SizeCV: r.SizeCV})
		byAlg := group[key]
		if byAlg == nil {
			byAlg = make(map[string]*agg)
			group[key] = byAlg
		}
		a := byAlg[r.Algorithm]
		if a == nil {
			a = &agg{}
			byAlg[r.Algorithm] = a
		}
		w := float64(r.Samples)
		a.cost += r.TotalCostUS() * w
		a.samples += w
	}
	bins := make(map[string][]string, len(group))
	for key, byAlg := range group {
		type scored struct {
			tag  string
			cost float64
		}
		ranked := make([]scored, 0, len(byAlg))
		for tag, a := range byAlg {
			ranked = append(ranked, scored{tag: tag, cost: a.cost / a.samples})
		}
		sort.Slice(ranked, func(i, j int) bool {
			if ranked[i].cost != ranked[j].cost {
				return ranked[i].cost < ranked[j].cost
			}
			return ranked[i].tag < ranked[j].tag
		})
		tags := make([]string, len(ranked))
		for i, s := range ranked {
			tags[i] = s.tag
		}
		bins[key] = tags
	}
	return &Model{bins: bins, records: len(recs)}
}

// LoadModel loads the store at path and builds its model. An empty
// or missing store yields a fallback-only model, not an error.
func LoadModel(path string) (*Model, error) {
	recs, err := Load(path)
	if err != nil {
		return nil, err
	}
	return NewModel(recs), nil
}

// Records returns how many calibration records back the model.
func (m *Model) Records() int { return m.records }

// Bins returns how many feature bins hold calibration data.
func (m *Model) Bins() int { return len(m.bins) }

// BinRankings returns a copy of every calibrated bin's ranked tags,
// keyed by BinKey — the literal form the committed fallback table is
// generated from (the experiments CLI's autofallback target prints it
// as Go source).
func (m *Model) BinRankings() map[string][]string {
	if m == nil {
		return nil
	}
	out := make(map[string][]string, len(m.bins))
	for k, v := range m.bins {
		out[k] = append([]string(nil), v...)
	}
	return out
}

// Pick returns the ranked algorithm tags for a matrix with features
// f on the named topology: the calibrated bin if one exists, the
// committed fallback table's bin otherwise, and the fixed default
// ranking as the last resort. The result is never empty and never
// contains an algorithm the matrix cannot run (sched.Algorithm.Fits:
// LP needs a power-of-two node count). Pick on a nil model uses the
// fallback chain alone. The first element is what algorithm "auto"
// resolves to; the prefix is what auto_race races.
func (m *Model) Pick(topoName string, f sched.Features) []string {
	key := BinKey(TopoKind(topoName), f)
	var ranked []string
	if m != nil {
		ranked = m.bins[key]
	}
	if len(ranked) == 0 {
		ranked = fallbackTable[key]
	}
	if len(ranked) == 0 {
		ranked = defaultRanking
	}
	// Tags outside the table pass through unfiltered.
	fitsAll := sched.FitsAll(f.Nodes)
	out := make([]string, 0, len(ranked))
	for _, tag := range ranked {
		if !fitsAll {
			if alg, ok := sched.Lookup(tag); ok && !alg.Fits(f.Nodes) {
				continue
			}
		}
		out = append(out, tag)
	}
	if len(out) == 0 {
		out = append(out, "RS_NL")
	}
	return out
}
