package expt

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"unsched/internal/hypercube"
)

func quickConfig() Config {
	cfg := DefaultConfig()
	cfg.Samples = 2
	return cfg
}

func TestConfigValidate(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg.Samples = 0
	if err := cfg.Validate(); err == nil {
		t.Error("zero samples accepted")
	}
	cfg = DefaultConfig()
	cfg.Topology = nil
	if err := cfg.Validate(); err == nil {
		t.Error("nil cube accepted")
	}
	cfg = DefaultConfig()
	cfg.Params.CompOpUS = -1
	if err := cfg.Validate(); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestMeasureCellAllAlgorithms(t *testing.T) {
	cfg := quickConfig()
	cells, err := cfg.MeasureCell(8, 1024)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range Algorithms {
		cell, ok := cells[alg]
		if !ok {
			t.Fatalf("missing cell for %s", alg)
		}
		if cell.CommMS <= 0 {
			t.Errorf("%s: non-positive comm %v", alg, cell.CommMS)
		}
	}
	if cells[AC].CompMS != 0 || cells[AC].Iters != 0 {
		t.Error("AC should report no scheduling cost or phases")
	}
	if cells[LP].Iters != 63 {
		t.Errorf("LP iters = %v, want 63", cells[LP].Iters)
	}
	if cells[RSN].Iters < 8 || cells[RSN].Iters > 16 {
		t.Errorf("RS_N iters = %v, expected near d + log d", cells[RSN].Iters)
	}
	if cells[RSNL].CompMS <= cells[RSN].CompMS {
		t.Error("RS_NL scheduling should cost more than RS_N")
	}
}

func TestMeasureCellDeterministic(t *testing.T) {
	cfg := quickConfig()
	a, err := cfg.MeasureCell(4, 256)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cfg.MeasureCell(4, 256)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range Algorithms {
		if a[alg].CommMS != b[alg].CommMS {
			t.Fatalf("%s: nondeterministic comm %v vs %v", alg, a[alg].CommMS, b[alg].CommMS)
		}
	}
}

func TestMeasureCellSeedChangesResults(t *testing.T) {
	cfg := quickConfig()
	a, err := cfg.MeasureCell(8, 1024)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed++
	b, err := cfg.MeasureCell(8, 1024)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for _, alg := range Algorithms {
		if a[alg].CommMS != b[alg].CommMS {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical results for all algorithms")
	}
}

func TestTable1ShapeClaims(t *testing.T) {
	// The qualitative claims of the paper's §6 on a reduced sample
	// count: LP beats RS_N at (d=48, 128K); RS_NL beats AC at d>=16
	// large messages; LP loses at d=4.
	cfg := quickConfig()

	high, err := cfg.MeasureCell(48, 128*1024)
	if err != nil {
		t.Fatal(err)
	}
	if high[LP].CommMS >= high[RSN].CommMS {
		t.Errorf("d=48 128K: LP (%.0f) should beat RS_N (%.0f)", high[LP].CommMS, high[RSN].CommMS)
	}
	if high[RSNL].CommMS >= high[AC].CommMS {
		t.Errorf("d=48 128K: RS_NL (%.0f) should beat AC (%.0f)", high[RSNL].CommMS, high[AC].CommMS)
	}

	low, err := cfg.MeasureCell(4, 128*1024)
	if err != nil {
		t.Fatal(err)
	}
	if low[LP].CommMS <= low[RSNL].CommMS {
		t.Errorf("d=4 128K: LP (%.0f) should lose to RS_NL (%.0f)", low[LP].CommMS, low[RSNL].CommMS)
	}
}

func TestWriteTable1Format(t *testing.T) {
	cfg := quickConfig()
	// Shrink the grid for test speed by measuring one density directly.
	row := Table1Row{
		Density: 4,
		Comm:    map[int64]map[Algorithm]Cell{},
		Iters:   map[Algorithm]float64{LP: 63, RSN: 6, RSNL: 7},
		Comp:    map[Algorithm]float64{LP: 0.08, RSN: 1.5, RSNL: 3.4},
	}
	for _, size := range Table1Sizes {
		cells, err := cfg.MeasureCell(4, size)
		if err != nil {
			t.Fatal(err)
		}
		row.Comm[size] = cells
	}
	var buf bytes.Buffer
	if err := WriteTable1(&buf, []Table1Row{row}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"RS_NL", "128K", "# iters", "comp"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 output missing %q:\n%s", want, out)
		}
	}
}

func TestCommVsSizeSeries(t *testing.T) {
	cfg := quickConfig()
	series, err := NewRunner(cfg).CommVsSize(context.Background(), 4, []int64{256, 4096})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != len(Algorithms) {
		t.Fatalf("%d series", len(series))
	}
	for _, s := range series {
		if len(s.X) != 2 {
			t.Fatalf("series %s has %d points", s.Label, len(s.X))
		}
		if s.Y[1] <= s.Y[0] {
			t.Errorf("series %s not increasing with message size: %v", s.Label, s.Y)
		}
	}
}

func TestOverheadVsSizeDeclines(t *testing.T) {
	cfg := quickConfig()
	series, err := NewRunner(cfg).OverheadVsSize(context.Background(), RSN, []int{8}, []int64{64, 128, 8192})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 1 {
		t.Fatalf("%d series", len(series))
	}
	y := series[0].Y
	if len(y) != 3 {
		t.Fatalf("%d points", len(y))
	}
	// The fraction declines with message size, sharply across the
	// 64->128 protocol boundary (Figures 10-11).
	if !(y[0] > y[1] && y[1] > y[2]) {
		t.Errorf("overhead fraction not declining: %v", y)
	}
}

func TestOverheadVsSizeRejectsWrongAlg(t *testing.T) {
	cfg := quickConfig()
	if _, err := NewRunner(cfg).OverheadVsSize(context.Background(), AC, []int{4}, []int64{64}); err == nil {
		t.Error("AC overhead figure should be rejected")
	}
}

func TestRegionMapShape(t *testing.T) {
	cfg := quickConfig()
	regions, err := NewRunner(cfg).RegionMap(context.Background(), []int{4, 48}, []int64{64, 128 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	byCell := map[[2]int64]Algorithm{}
	for _, r := range regions {
		byCell[[2]int64{int64(r.Density), r.MsgBytes}] = r.Winner
	}
	// Figure 5's corners: AC wins tiny messages at low density; LP wins
	// the large-density large-message corner.
	if got := byCell[[2]int64{4, 64}]; got != AC {
		t.Errorf("(d=4, 64B) winner = %s, want AC", got)
	}
	if got := byCell[[2]int64{48, 128 * 1024}]; got != LP {
		t.Errorf("(d=48, 128K) winner = %s, want LP", got)
	}
	var buf bytes.Buffer
	if err := WriteRegionMap(&buf, regions); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "d \\ M") {
		t.Errorf("region map header missing:\n%s", buf.String())
	}
}

func TestFigureSizes(t *testing.T) {
	sizes := FigureSizes()
	if sizes[0] != 16 || sizes[len(sizes)-1] != 128*1024 {
		t.Errorf("FigureSizes = %v", sizes)
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] != 2*sizes[i-1] {
			t.Error("sizes not powers of two")
		}
	}
}

func TestMeasureCellSmallCube(t *testing.T) {
	cfg := quickConfig()
	cfg.Topology = hypercube.MustNew(3)
	cells, err := cfg.MeasureCell(2, 512)
	if err != nil {
		t.Fatal(err)
	}
	if cells[LP].Iters != 7 {
		t.Errorf("8-node LP iters = %v, want 7", cells[LP].Iters)
	}
}
