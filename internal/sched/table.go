package sched

import (
	"fmt"
	"math/rand"
	"strings"

	"unsched/internal/comm"
)

// Algorithm is one entry of the algorithm table: a tag the system
// serves, the execution protocol the paper measures it under, the
// machine constraint it imposes, and the Core method that builds its
// schedule. Every consumer that dispatches on a tag — the daemon, the
// experiment harness, the auto picker, the CLI, the public API —
// reads the table, so adding an algorithm is one entry here plus one
// Core method.
type Algorithm struct {
	// Tag is the canonical name: the wire tag, and the Algorithm field
	// of every schedule Build returns.
	Tag string
	// Protocol is the execution protocol the paper pairs with the
	// algorithm (§6): "LP" for LP's exchange-every-phase run, "S1"
	// (ready signals, concurrent pairwise exchange) for the link-free
	// schedules, "S2" (post all receives, then send in schedule order)
	// for schedules that avoid node contention only, and "AC" for the
	// asynchronous baseline. The daemon hashes it into simulate keys.
	Protocol string
	// PowerOfTwo marks an algorithm that needs n = 2^k processors:
	// LP's XOR pairing needs a full address space.
	PowerOfTwo bool
	// Randomized marks an algorithm that reads the RNG Build receives.
	// The others ignore it, so a caller may pass nil and skip seeding
	// a generator for them.
	Randomized bool
	// Build runs the algorithm on c with the caller's RNG, which only
	// a Randomized entry reads. Build is nil for AC, whose output is a
	// send order rather than phases (Core.AC).
	Build func(c *Core, m *comm.Matrix, rng *rand.Rand) (*Schedule, error)
}

// Algorithms is the table, in the order every want-list and the
// unsched CLI's comparison table use: the paper's four contenders in
// its column order, then the size-aware and greedy extensions.
var Algorithms = []Algorithm{
	{Tag: "AC", Protocol: "AC"},
	{Tag: "LP", Protocol: "LP", PowerOfTwo: true, Build: ignoreRNG((*Core).LP)},
	{Tag: "RS_N", Protocol: "S2", Randomized: true, Build: (*Core).RSN},
	{Tag: "RS_NL", Protocol: "S1", Randomized: true, Build: (*Core).RSNL},
	{Tag: "RS_NL_SZ", Protocol: "S1", Randomized: true, Build: (*Core).RSNLSized},
	{Tag: "GREEDY", Protocol: "S2", Build: ignoreRNG((*Core).Greedy)},
	{Tag: "GREEDY_LF", Protocol: "S2", Build: ignoreRNG((*Core).GreedyLargestFirst)},
	{Tag: "GREEDY_LF_LINK", Protocol: "S1", Build: ignoreRNG((*Core).GreedyLargestFirstLinkFree)},
}

// ignoreRNG adapts a deterministic Core method to the Build signature.
func ignoreRNG(build func(*Core, *comm.Matrix) (*Schedule, error)) func(*Core, *comm.Matrix, *rand.Rand) (*Schedule, error) {
	return func(c *Core, m *comm.Matrix, _ *rand.Rand) (*Schedule, error) { return build(c, m) }
}

// Lookup returns the table entry for tag.
func Lookup(tag string) (Algorithm, bool) {
	for i := range Algorithms {
		if Algorithms[i].Tag == tag {
			return Algorithms[i], true
		}
	}
	return Algorithm{}, false
}

// Fits reports whether the algorithm can schedule an n-processor
// matrix. Topology fit needs no flag: Core.requireNet already rejects
// a core built for another machine.
func (a Algorithm) Fits(n int) bool {
	return !a.PowerOfTwo || powerOfTwo(n)
}

// FitError explains why the algorithm cannot schedule an n-processor
// matrix; it is nil when the algorithm Fits.
func (a Algorithm) FitError(n int) error {
	if a.Fits(n) {
		return nil
	}
	return fmt.Errorf("%s needs a power-of-two node count, got %d", a.Tag, n)
}

// FitsAll reports whether every table algorithm fits n, the common
// case in which a caller filtering tags by Fits can skip the per-tag
// lookups. PowerOfTwo is the only constraint, so a power-of-two n
// answers without scanning the table.
func FitsAll(n int) bool {
	if powerOfTwo(n) {
		return true
	}
	for i := range Algorithms {
		if Algorithms[i].PowerOfTwo {
			return false
		}
	}
	return true
}

func powerOfTwo(n int) bool { return n > 0 && n&(n-1) == 0 }

// Tags returns the table's tags in table order.
func Tags() []string {
	tags := make([]string, len(Algorithms))
	for i, a := range Algorithms {
		tags[i] = a.Tag
	}
	return tags
}

// WantList renders tags the way an unknown-tag error offers the
// alternatives: "AC, LP, or RS_N".
func WantList(tags ...string) string {
	if len(tags) < 3 {
		return strings.Join(tags, " or ")
	}
	return strings.Join(tags[:len(tags)-1], ", ") + ", or " + tags[len(tags)-1]
}
