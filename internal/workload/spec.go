// Package workload defines the canonical, machine-neutral description
// of a communication workload — the one vocabulary the service
// endpoints, the campaign engine, the CLIs, and the public API share,
// mirroring internal/topo's Spec layer for topologies. A spec names a
// pattern family and its parameters; building it against an n-node
// machine yields the comm.Matrix the schedulers consume.
//
// A spec round-trips through its string form, kind:args, where the
// kind names a row of the kind table (kinds) and the args follow that
// row's grammar: "uniform:8:4096" is the paper's §6 workload,
// "halo:64x64:512" an irregular-mesh halo exchange. Grammars lists
// every kind's grammar; "dregular" and "random" alias two kinds.
//
// Parse with ParseSpec, render the canonical form with String, check
// machine-independent bounds with Validate and machine fit with
// ValidateFor, and construct the matrix with Build or BuildInto. The
// zero Spec is invalid.
//
// Specs are machine-sized at build time: the same halo:64x64:512 spec
// sweeps unchanged across a cube:6 and a torus:16x16 campaign. Each
// spec also owns a stream-key identity (Key) under which the
// experiment engine derives its deterministic RNG streams; the uniform
// kind's identity is exactly the historical (density, bytes) tuple, so
// classic density-sweep campaigns reproduce their goldens bit for bit.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"

	"unsched/internal/comm"
)

// Structural caps, enforced by Validate before any build: they bound
// the work a spec can demand (element-grid builds cost O(elements),
// matrix builds O(n^2)) independent of the machine it lands on, so
// services can reject oversized specs from the string alone.
const (
	// MaxBytes bounds the per-message (or per-element) size parameter.
	MaxBytes = 1 << 30
	// MaxDegree bounds the density-style parameters (D, K, HOT).
	MaxDegree = 1 << 20
	// MaxSpMVNNZ bounds the spmv nonzeros-per-row parameter. The build
	// draws 32*n*NNZ power-law samples, so unlike the other degree
	// parameters this one multiplies directly into build time; 64 covers
	// every realistic sparse-matrix row while keeping the worst-case
	// build (n=1024) around two million draws.
	MaxSpMVNNZ = 64
	// MaxElements bounds an element grid (the build walks every
	// element).
	MaxElements = 1 << 21
	// MaxExtent bounds one element-grid axis.
	MaxExtent = 1 << 12
	// haloDiagProb is the diagonal-insertion probability of the halo
	// spec's irregular mesh — fixed so the spec string alone identifies
	// the distribution.
	haloDiagProb = 0.3
	// hotspotProb is the hot-destination probability of the hotspot
	// spec, fixed for the same reason.
	hotspotProb = 0.5
	// spmvRowsPerProc matches comm.SpMVPowerLaw's 32 rows per processor.
	spmvRowsPerProc = 32
)

// Spec is the canonical description of one workload. Construct with
// ParseSpec or UniformSpec; the zero value is invalid.
type Spec struct {
	// Kind names a row of the kind table: "uniform", "halo", ...
	Kind string
	// The parameters, each named after its grammar token (Hot is HOT);
	// a kind reads only those its grammar names. Every grammar has
	// BYTES: the uniform message size, or the per-element size of the
	// aggregating kinds.
	D       int
	Bytes   int64
	Hot     int
	W, H    int
	X, Y, Z int
	NNZ     int
	K       int
}

// The grammar's parameters, one per integer Spec field.
const (
	pD = iota
	pBytes
	pHot
	pW
	pH
	pX
	pY
	pZ
	pNNZ
	pK
	nParams
)

// A param is one grammar parameter: its token, the noun its errors
// use, and its Validate range.
type param struct {
	token, noun string
	lo, hi      int64
}

var params = [nParams]param{
	pD:     {"D", "density", 1, MaxDegree},
	pBytes: {"BYTES", "byte size", 1, MaxBytes},
	pHot:   {"HOT", "hot count", 1, MaxDegree},
	pW:     {"W", "extent", 2, MaxExtent},
	pH:     {"H", "extent", 2, MaxExtent},
	pX:     {"X", "extent", 1, MaxExtent},
	pY:     {"Y", "extent", 1, MaxExtent},
	pZ:     {"Z", "extent", 1, MaxExtent},
	pNNZ:   {"NNZ", "nnz", 1, MaxSpMVNNZ},
	pK:     {"K", "distance", 1, MaxDegree},
}

// slots returns sp's parameters indexed by the p constants; specOf is
// its inverse. Together they are the one place a grammar token meets
// a Spec field.
func (sp Spec) slots() [nParams]int64 {
	return [nParams]int64{
		pD: int64(sp.D), pBytes: sp.Bytes, pHot: int64(sp.Hot),
		pW: int64(sp.W), pH: int64(sp.H),
		pX: int64(sp.X), pY: int64(sp.Y), pZ: int64(sp.Z),
		pNNZ: int64(sp.NNZ), pK: int64(sp.K),
	}
}

func specOf(kind string, v *[nParams]int64) Spec {
	return Spec{
		Kind: kind, D: int(v[pD]), Bytes: v[pBytes], Hot: int(v[pHot]),
		W: int(v[pW]), H: int(v[pH]),
		X: int(v[pX]), Y: int(v[pY]), Z: int(v[pZ]),
		NNZ: int(v[pNNZ]), K: int(v[pK]),
	}
}

// kind is one row of the kind table: everything the package knows
// about one workload family. Every method of Spec reads its row, so
// adding a workload is one row plus its comm generator.
type kind struct {
	name string
	// alias is another name a caller may write; Kind and String say name.
	alias string
	// grammar is the argument list after "name:": colon-separated
	// fields, each one parameter or an x-joined element grid ("WxH").
	// Its order is the parse order, the canonical form's, and the
	// stream key's.
	grammar string
	// tag leads the stream key. Uniform's is 0, meaning none: its key
	// is the bare historical (D, BYTES) tuple, both components
	// positive, so classic density sweeps reproduce their goldens.
	// Every other kind leads with a distinct negative tag, which no
	// uniform key can start with.
	tag int64
	// density is DensityHint: the nominal density on an n-node
	// machine. nil means 0, a density that emerges from the partition.
	density func(sp Spec, n int) int
	// sizeCV is SizeCVHint: 0 when every message carries Bytes, a
	// coarse analytic hint for the kinds whose sizes vary. It only has
	// to land in the right quality-model band.
	sizeCV float64
	// maxMsg is MaxMessageBytes; nil means no message carries more
	// than Bytes.
	maxMsg func(sp Spec) int64
	// fit is the kind's machine-fit rule beyond n >= 2; nil admits
	// every machine.
	fit func(sp Spec, n int) error
	// build generates the pattern into m, which fit has admitted.
	build func(sp Spec, m *comm.Matrix, rng *rand.Rand) error
	// deterministic marks a build that ignores its rng.
	deterministic bool

	// fields is grammar split once.
	fields []field
}

// A field is one colon-separated grammar field: a parameter, or the
// axes of an element grid.
type field struct {
	token  string // "D", "WxH", ...
	params []int
}

// kinds is the table, in the order Grammars and README's Workloads
// table list it.
var kinds = []kind{
	{
		// The paper's §6 workload: uniform message size, exactly
		// d-regular random pattern.
		name: "uniform", alias: "dregular", grammar: "D:BYTES", density: densityD, fit: fitDensity,
		build: func(sp Spec, m *comm.Matrix, rng *rand.Rand) error { return comm.DRegularInto(m, sp.D, sp.Bytes, rng) },
	},
	{
		// Send-side uniform random: exactly d random destinations per
		// sender, receive degrees binomial.
		name: "scatter", alias: "random", grammar: "D:BYTES", tag: -1, density: densityD, fit: fitDensity,
		build: func(sp Spec, m *comm.Matrix, rng *rand.Rand) error {
			return comm.UniformRandomInto(m, sp.D, sp.Bytes, rng)
		},
	},
	{
		// d messages per sender, half of them aimed at the first HOT
		// processors.
		name: "hotspot", grammar: "D:BYTES:HOT", tag: -2, density: densityD,
		fit: func(sp Spec, n int) error {
			if err := fitDensity(sp, n); err != nil {
				return err
			}
			if sp.Hot > n {
				return fmt.Errorf("workload: hotspot hot count %d exceeds the %d-node machine", sp.Hot, n)
			}
			return nil
		},
		build: func(sp Spec, m *comm.Matrix, rng *rand.Rand) error {
			return comm.HotSpotInto(m, sp.D, sp.Bytes, sp.Hot, hotspotProb, rng)
		},
	},
	{
		// Irregular-mesh halo exchange: W rows of H elements with
		// random diagonals, strip-partitioned by row across the
		// machine, BYTES per boundary element. A processor pair meets
		// across two boundary rows of H elements with at most 8
		// neighbors each.
		name: "halo", grammar: "WxH:BYTES", tag: -3, sizeCV: 0.4,
		maxMsg: func(sp Spec) int64 { return sp.Bytes * 16 * int64(sp.H) },
		fit: func(sp Spec, n int) error {
			if sp.W*sp.H < n {
				return fmt.Errorf("workload: halo grid %dx%d has fewer elements than the %d-node machine", sp.W, sp.H, n)
			}
			return nil
		},
		build: func(sp Spec, m *comm.Matrix, rng *rand.Rand) error {
			mesh, err := comm.NewIrregularMesh(sp.W, sp.H, haloDiagProb, rng)
			if err != nil {
				return err
			}
			return comm.HaloFromPartitionInto(m, mesh.StripPartition(m.N()), mesh.Adj, sp.Bytes)
		},
	},
	{
		// Sparse mat-vec gather with power-law column popularity, NNZ
		// nonzeros per row, BYTES per fetched vector entry. A requester
		// fetches each of an owner's 32 columns at most once.
		name: "spmv", grammar: "NNZ:BYTES", tag: -4, sizeCV: 1.0,
		maxMsg: func(sp Spec) int64 { return sp.Bytes * 2 * spmvRowsPerProc },
		build: func(sp Spec, m *comm.Matrix, rng *rand.Rand) error {
			return comm.SpMVPowerLawInto(m, sp.NNZ, sp.Bytes, rng)
		},
	},
	{
		// Random fixed-point-free permutation.
		name: "perm", grammar: "BYTES", tag: -5, density: densityOne,
		build: func(sp Spec, m *comm.Matrix, rng *rand.Rand) error { return comm.PermutationInto(m, sp.Bytes, rng) },
	},
	{
		// Matrix-transpose exchange on a k x k processor grid.
		name: "transpose", grammar: "BYTES", tag: -6, density: densityOne, deterministic: true,
		fit: func(_ Spec, n int) error {
			if k := int(math.Sqrt(float64(n))); k*k != n {
				return fmt.Errorf("workload: transpose needs a square processor count, got %d", n)
			}
			return nil
		},
		build: func(sp Spec, m *comm.Matrix, _ *rand.Rand) error { return comm.TransposeInto(m, sp.Bytes) },
	},
	{
		// Cyclic shift by K.
		name: "shift", grammar: "K:BYTES", tag: -7, density: densityOne, deterministic: true,
		fit: func(sp Spec, n int) error {
			if sp.K%n == 0 {
				return fmt.Errorf("workload: shift by %d is a multiple of the %d-node machine size (self messages)", sp.K, n)
			}
			return nil
		},
		build: func(sp Spec, m *comm.Matrix, _ *rand.Rand) error { return comm.ShiftInto(m, sp.K, sp.Bytes) },
	},
	{
		// 7-point periodic stencil halo over an XxYxZ element grid,
		// strip-partitioned. A processor pair meets across two boundary
		// planes of Y*Z elements with 6 edges each.
		name: "stencil3d", grammar: "XxYxZ:BYTES", tag: -8, sizeCV: 0.4, deterministic: true,
		maxMsg: func(sp Spec) int64 { return sp.Bytes * 12 * int64(sp.Y) * int64(sp.Z) },
		fit: func(sp Spec, n int) error {
			if sp.X*sp.Y*sp.Z < n {
				return fmt.Errorf("workload: stencil3d grid %dx%dx%d has fewer elements than the %d-node machine", sp.X, sp.Y, sp.Z, n)
			}
			return nil
		},
		build: func(sp Spec, m *comm.Matrix, _ *rand.Rand) error {
			return comm.Stencil3DInto(m, sp.X, sp.Y, sp.Z, sp.Bytes)
		},
	},
	{
		// Bit-complement permutation.
		name: "bitcomp", grammar: "BYTES", tag: -9, density: densityOne, deterministic: true,
		fit: func(_ Spec, n int) error {
			if n&(n-1) != 0 {
				return fmt.Errorf("workload: bitcomp needs a power-of-two machine, got %d nodes", n)
			}
			return nil
		},
		build: func(sp Spec, m *comm.Matrix, _ *rand.Rand) error { return comm.BitComplementInto(m, sp.Bytes) },
	},
	{
		// Complete exchange.
		name: "alltoall", grammar: "BYTES", tag: -10, deterministic: true,
		density: func(_ Spec, n int) int { return n - 1 },
		build:   func(sp Spec, m *comm.Matrix, _ *rand.Rand) error { return comm.AllToAllInto(m, sp.Bytes) },
	},
	{
		// The §6 workload with the sizes the paper leaves to [15]: powers
		// of two drawn log-uniformly from [BYTES/8+1, BYTES], {m, 2m, 4m}
		// (CV 0.5345) from BYTES 4, {1, 2} (CV 1/3) at 2-3; fit rejects 1.
		name: "mixed", grammar: "D:BYTES", tag: -11, density: densityD, sizeCV: 0.5345,
		fit: func(sp Spec, n int) error {
			if sp.Bytes < 2 {
				return fmt.Errorf("workload: mixed needs at least 2 bytes to mix sizes, got %d", sp.Bytes)
			}
			return fitDensity(sp, n)
		},
		build: func(sp Spec, m *comm.Matrix, rng *rand.Rand) error {
			return comm.MixedSizesInto(m, sp.D, sp.Bytes/8+1, sp.Bytes, rng)
		},
	},
}

func densityD(sp Spec, _ int) int { return sp.D }
func densityOne(Spec, int) int    { return 1 }

func fitDensity(sp Spec, n int) error {
	if sp.D >= n {
		return fmt.Errorf("workload: %s density %d out of range (0,%d) on a %d-node machine", sp.Kind, sp.D, n, n)
	}
	return nil
}

func init() {
	for i := range kinds {
		k := &kinds[i]
		for _, token := range strings.Split(k.grammar, ":") {
			f := field{token: token}
			for _, axis := range strings.Split(token, "x") {
				p := slices.IndexFunc(params[:], func(q param) bool { return q.token == axis })
				if p < 0 {
					panic("workload: kind " + k.name + ": unknown grammar token " + axis)
				}
				f.params = append(f.params, p)
			}
			k.fields = append(k.fields, f)
		}
	}
}

// lookup returns the table row named name, or nil.
func lookup(name string) *kind {
	for i := range kinds {
		if kinds[i].name == name {
			return &kinds[i]
		}
	}
	return nil
}

// resolve is lookup for a name a caller wrote, which may be an alias.
func resolve(name string) *kind {
	if k := lookup(name); k != nil || name == "" {
		return k
	}
	if i := slices.IndexFunc(kinds, func(k kind) bool { return k.alias == name }); i >= 0 {
		return &kinds[i]
	}
	return nil
}

// Grammars lists every kind's name:args grammar in table order, the
// list ParseSpec's errors and the CLIs' flag help print.
func Grammars() []string {
	out := make([]string, len(kinds))
	for i, k := range kinds {
		out[i] = k.name + ":" + k.grammar
	}
	return out
}

// UniformSpec builds the paper's classic workload spec without going
// through the string grammar: density d, uniform message size bytes.
func UniformSpec(d int, bytes int64) Spec { return Spec{Kind: "uniform", D: d, Bytes: bytes} }

// BareSpec resolves a bare kind name or alias to the spec whose
// parameters fill supplies by grammar token ("D", "BYTES", "HOT", ...);
// a kind whose grammar needs a token fill lacks is rejected.
func BareSpec(name string, fill map[string]int64) (Spec, error) {
	k := resolve(name)
	if k == nil {
		return Spec{}, fmt.Errorf("workload: unknown kind %q (want %s)", name, strings.Join(Grammars(), ", "))
	}
	var v [nParams]int64
	for _, f := range k.fields {
		for _, p := range f.params {
			x, ok := fill[params[p].token]
			if !ok {
				return Spec{}, fmt.Errorf("workload: bare %s leaves %s unset; write the spec %s:%s", name, params[p].token, k.name, k.grammar)
			}
			v[p] = x
		}
	}
	return specOf(k.name, &v), k.validate(&v)
}

// ParseSpec parses the string form of a workload spec. A kind's alias
// is accepted in place of its name ("dregular:8:4096" is
// "uniform:8:4096": the same row, and the canonical form says
// "uniform"), mirroring topo's "hypercube"/"cube" aliasing.
func ParseSpec(s string) (Spec, error) {
	name, rest, ok := strings.Cut(s, ":")
	if !ok || rest == "" {
		return Spec{}, fmt.Errorf("workload: spec %q: want kind:args (%s)", s, strings.Join(Grammars(), ", "))
	}
	k := resolve(name)
	if k == nil {
		return Spec{}, fmt.Errorf("workload: spec %q: unknown kind %q (want %s)", s, name, strings.Join(Grammars(), ", "))
	}
	if strings.Count(rest, ":")+1 != len(k.fields) {
		return Spec{}, fmt.Errorf("workload: spec %q: want %s:%s", s, k.name, k.grammar)
	}
	var v [nParams]int64
	for _, f := range k.fields {
		var arg string
		arg, rest, _ = strings.Cut(rest, ":")
		axes := []string{arg}
		if len(f.params) > 1 {
			if axes = strings.Split(arg, "x"); len(axes) != len(f.params) {
				return Spec{}, fmt.Errorf("workload: spec %q: bad extent %q (want %s)", s, arg, f.token)
			}
		}
		for i, p := range f.params {
			x, err := strconv.ParseInt(axes[i], 10, 64)
			if err != nil {
				return Spec{}, fmt.Errorf("workload: spec %q: bad %s %q", s, params[p].noun, arg)
			}
			v[p] = x
		}
	}
	return specOf(k.name, &v), k.validate(&v)
}

// MustParseSpec is ParseSpec for known-good specs; it panics on error.
func MustParseSpec(s string) Spec {
	sp, err := ParseSpec(s)
	if err != nil {
		panic(err)
	}
	return sp
}

// appendArg renders field f of the parameters v: a number, or an
// x-joined grid.
func (f field) appendArg(b []byte, v *[nParams]int64) []byte {
	for i, p := range f.params {
		if i > 0 {
			b = append(b, 'x')
		}
		b = strconv.AppendInt(b, v[p], 10)
	}
	return b
}

// validate checks the parameters v against their ranges in grammar
// order, and a grid's element count against MaxElements.
func (k *kind) validate(v *[nParams]int64) error {
	for _, f := range k.fields {
		elements := int64(1)
		for _, p := range f.params {
			r := params[p]
			if v[p] >= r.lo && v[p] <= r.hi {
				elements *= v[p]
				continue
			}
			if len(f.params) == 1 {
				return fmt.Errorf("workload: %s %s %d out of range [%d,%d]", k.name, r.noun, v[p], r.lo, r.hi)
			}
			return fmt.Errorf("workload: %s grid %s out of range [%d,%d] per axis", k.name, f.appendArg(nil, v), r.lo, r.hi)
		}
		if len(f.params) > 1 && elements > MaxElements {
			return fmt.Errorf("workload: %s grid %s has %d elements, limit %d", k.name, f.appendArg(nil, v), elements, MaxElements)
		}
	}
	return nil
}

// Validate checks the machine-independent bounds — the same caps a
// service enforces from the spec string before paying for any O(n^2)
// or O(elements) build. Machine fit (density vs node count, square or
// power-of-two machines) is ValidateFor's job.
func (sp Spec) Validate() error {
	k := lookup(sp.Kind)
	if k == nil {
		return fmt.Errorf("workload: unknown spec kind %q", sp.Kind)
	}
	v := sp.slots()
	return k.validate(&v)
}

// ValidateFor checks that the spec fits an n-node machine — the
// bounds that depend on where the workload lands. It assumes Validate
// passed.
func (sp Spec) ValidateFor(n int) error {
	if n < 2 {
		return fmt.Errorf("workload: %s needs at least 2 processors, got %d", sp.Kind, n)
	}
	if k := lookup(sp.Kind); k != nil && k.fit != nil {
		return k.fit(sp, n)
	}
	return nil
}

// String renders the canonical spec form, parseable by ParseSpec.
func (sp Spec) String() string {
	k := lookup(sp.Kind)
	if k == nil {
		return "invalid:" + sp.Kind
	}
	v := sp.slots()
	var buf [64]byte
	b := append(buf[:0], k.name...)
	for _, f := range k.fields {
		b = f.appendArg(append(b, ':'), &v)
	}
	return string(b)
}

// MsgBytes returns the spec's size parameter: the uniform message size
// for the fixed-size kinds, the per-element contribution for the
// aggregating kinds, whose actual message sizes are multiples of it.
func (sp Spec) MsgBytes() int64 { return sp.Bytes }

// MaxMessageBytes returns a conservative upper bound on the size of
// any single message the built pattern can contain: Bytes for the
// non-aggregating kinds, and for the aggregating kinds Bytes times a
// bound on how many per-element contributions one processor pair can
// accumulate (each row's maxMsg says how). Services gate this bound,
// not the bare per-element Bytes, so an aggregating spec cannot
// smuggle a multi-gigabyte message past a per-message size cap.
func (sp Spec) MaxMessageBytes() int64 {
	if k := lookup(sp.Kind); k != nil && k.maxMsg != nil {
		return k.maxMsg(sp)
	}
	return sp.Bytes
}

// DensityHint returns the nominal density of the built pattern on an
// n-node machine: the D parameter for the degree-parameterized kinds,
// the exact density for the permutation-shaped and complete-exchange
// kinds, and 0 for the kinds whose density emerges from the
// partition.
func (sp Spec) DensityHint(n int) int {
	if k := lookup(sp.Kind); k != nil && k.density != nil {
		return k.density(sp, n)
	}
	return 0
}

// SizeCVHint returns the nominal coefficient of variation (std/mean)
// of the built pattern's message sizes, without building anything.
func (sp Spec) SizeCVHint() float64 {
	if k := lookup(sp.Kind); k != nil {
		return k.sizeCV
	}
	return 0
}

// AppendKey appends the spec's stream-key identity to buf and returns
// the extended slice: the kind's tag, then its parameters in grammar
// order. The experiment engine folds these components (with the
// master seed, the sample index, and the algorithm index) through
// composed SplitMix64 mixing to derive every deterministic RNG stream;
// two specs share streams iff their keys are identical. A spec of no
// known kind appends nothing.
func (sp Spec) AppendKey(buf []int64) []int64 {
	k := lookup(sp.Kind)
	if k == nil {
		return buf
	}
	var key [1 + nParams]int64
	n := 0
	if k.tag != 0 {
		key[0], n = k.tag, 1
	}
	v := sp.slots()
	for _, f := range k.fields {
		for _, p := range f.params {
			key[n] = v[p]
			n++
		}
	}
	return append(buf, key[:n]...)
}

// Key returns the spec's stream-key identity as a fresh slice.
func (sp Spec) Key() []int64 { return sp.AppendKey(nil) }

// Deterministic reports whether the built matrix is independent of the
// RNG (permutation-shaped deterministic exchanges and element-grid
// stencils).
func (sp Spec) Deterministic() bool {
	k := lookup(sp.Kind)
	return k != nil && k.deterministic
}

// Build constructs the workload's communication matrix for an n-node
// machine. rng drives the randomized kinds (it may be nil for the
// deterministic ones) and is the only source of randomness, so one
// seed reproduces one matrix anywhere.
func (sp Spec) Build(n int, rng *rand.Rand) (*comm.Matrix, error) {
	m, err := comm.New(n)
	if err != nil {
		return nil, err
	}
	if err := sp.BuildInto(m, rng); err != nil {
		return nil, err
	}
	return m, nil
}

// BuildInto regenerates the workload into m (sized for the target
// machine), zeroing it first — the allocation-free form campaign
// workers use to reuse one matrix across every cell they measure.
func (sp Spec) BuildInto(m *comm.Matrix, rng *rand.Rand) error {
	if err := sp.Validate(); err != nil {
		return err
	}
	if err := sp.ValidateFor(m.N()); err != nil {
		return err
	}
	return lookup(sp.Kind).build(sp, m, rng)
}
