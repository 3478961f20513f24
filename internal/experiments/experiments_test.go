package experiments

import (
	"strings"
	"testing"

	"fraz/internal/dataset"
	"fraz/internal/pressio"
	"fraz/internal/report"
)

func quickConfig() Config {
	cfg := DefaultConfig()
	cfg.MaxTimeSteps = 4
	cfg.Workers = 2
	return cfg
}

func checkTable(t *testing.T, tab *report.Table, minRows int) {
	t.Helper()
	if tab == nil {
		t.Fatalf("nil table")
	}
	if len(tab.Rows) < minRows {
		t.Fatalf("table %q has %d rows, want at least %d", tab.Title, len(tab.Rows), minRows)
	}
	out := tab.String()
	if !strings.Contains(out, tab.Columns[0]) {
		t.Errorf("rendered table missing header: %s", out)
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if !cfg.Quick || cfg.Scale != dataset.ScaleTiny {
		t.Errorf("unexpected default config %+v", cfg)
	}
	if cfg.timeSteps(100) != cfg.MaxTimeSteps {
		t.Errorf("timeSteps should cap at MaxTimeSteps")
	}
	if cfg.timeSteps(3) != 3 {
		t.Errorf("timeSteps should not exceed the dataset's count")
	}
}

func TestNamesAndRunDispatch(t *testing.T) {
	names := Names()
	if len(names) != 17 {
		t.Errorf("expected 17 experiments, got %d", len(names))
	}
	if _, err := Run("bogus", quickConfig()); err == nil {
		t.Errorf("unknown experiment should fail")
	}
	tables, err := Run("table3", quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 {
		t.Fatalf("table3 should produce one table")
	}
}

func TestTableIII(t *testing.T) {
	tab, err := TableIII(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tab, 5)
	out := tab.String()
	for _, app := range dataset.Names() {
		if !strings.Contains(out, app) {
			t.Errorf("Table III missing %s", app)
		}
	}
}

func TestFigure1ShapeHolds(t *testing.T) {
	tab, err := Figure1(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tab, 10)
	// The core claim of Fig. 1: at comparable bit rates, fixed-accuracy
	// PSNR beats fixed-rate PSNR. Verify the aggregate: the best
	// fixed-accuracy PSNR per bit-rate bucket is at least the fixed-rate
	// one in the majority of overlapping buckets.
	type point struct{ bitRate, psnr float64 }
	var acc, fr []point
	for _, row := range tab.Rows {
		mode := row[0].(string)
		p := point{row[1].(float64), row[2].(float64)}
		if mode == "fixed-accuracy" {
			acc = append(acc, p)
		} else {
			fr = append(fr, p)
		}
	}
	if len(acc) == 0 || len(fr) == 0 {
		t.Fatalf("both modes should be present")
	}
	wins := 0
	for _, f := range fr {
		// find the accuracy point with the closest (not larger) bit rate
		best := -1.0
		for _, a := range acc {
			if a.bitRate <= f.bitRate*1.05 && a.psnr > best {
				best = a.psnr
			}
		}
		if best >= f.psnr {
			wins++
		}
	}
	if wins*2 < len(fr) {
		t.Errorf("fixed-accuracy should dominate fixed-rate at comparable bit rates (wins=%d of %d)", wins, len(fr))
	}
}

func TestFigure3NonMonotonicNote(t *testing.T) {
	tab, err := Figure3(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tab, 10)
	if len(tab.Notes) == 0 || !strings.Contains(tab.Notes[0], "non-monotonic") {
		t.Errorf("Figure 3 should report non-monotonicity, notes: %v", tab.Notes)
	}
}

func TestFigure4LossColumnConsistent(t *testing.T) {
	tab, err := Figure4(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tab, 10)
	for _, row := range tab.Rows {
		ratio := row[1].(float64)
		loss := row[2].(float64)
		if ratio > 0 && loss < 0 {
			t.Errorf("negative loss in row %v", row)
		}
	}
}

func TestFigure6ConvergenceContrast(t *testing.T) {
	tab, err := Figure6(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tab, 3)
	if len(tab.Notes) != 2 {
		t.Fatalf("Figure 6 should have two summary notes, got %v", tab.Notes)
	}
}

func TestFigure7RowsPerTarget(t *testing.T) {
	cfg := quickConfig()
	cfg.MaxTimeSteps = 2
	tab, err := Figure7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tab, 5)
	for _, row := range tab.Rows {
		total := row[1].(float64)
		compressorCPU := row[2].(float64)
		iterations := row[3].(int)
		if total <= 0 || compressorCPU <= 0 || iterations <= 0 {
			t.Errorf("non-positive timing/iteration values in row %v", row)
		}
	}
}

func TestFigure8SpeedupColumns(t *testing.T) {
	cfg := quickConfig()
	cfg.MaxTimeSteps = 2
	tab, err := Figure8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tab, 8)
	for _, row := range tab.Rows {
		if row[2].(float64) <= 0 {
			t.Errorf("non-positive runtime in row %v", row)
		}
	}
}

func TestFigure9AllDatasets(t *testing.T) {
	if testing.Short() {
		t.Skip("figure 9 sweeps all datasets")
	}
	tables, err := Figure9(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 5 {
		t.Fatalf("Figure 9 should produce one table per application, got %d", len(tables))
	}
	for _, tab := range tables {
		checkTable(t, tab, 6)
		hasFixedRate := false
		for _, row := range tab.Rows {
			if strings.Contains(row[0].(string), "fixed-rate") {
				hasFixedRate = true
			}
		}
		if !hasFixedRate {
			t.Errorf("%s: missing the fixed-rate baseline", tab.Title)
		}
	}
	// 1-D datasets must not include MGARD.
	for _, tab := range tables {
		if strings.Contains(tab.Title, "HACC") || strings.Contains(tab.Title, "EXAALT") {
			for _, row := range tab.Rows {
				if strings.Contains(row[0].(string), "mgard") {
					t.Errorf("%s: MGARD should be skipped for 1-D data", tab.Title)
				}
			}
		}
	}
}

func TestFigure10QualityOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("figure 10 runs every compressor")
	}
	tab, err := Figure10(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tab, 4)
	var frazZFP, fixedZFP float64
	for _, row := range tab.Rows {
		name := row[0].(string)
		psnr := row[2].(float64)
		switch name {
		case "ZFP (FRaZ)":
			frazZFP = psnr
		case "ZFP (fixed-rate)":
			fixedZFP = psnr
		}
	}
	if !(frazZFP > fixedZFP) {
		t.Errorf("ZFP(FRaZ) PSNR %.1f should beat ZFP(fixed-rate) PSNR %.1f at the same ratio", frazZFP, fixedZFP)
	}
}

func TestIterationComparison(t *testing.T) {
	tab, err := IterationComparison(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tab, 8)
	for _, row := range tab.Rows {
		calls := row[2].(int)
		if calls <= 0 {
			t.Errorf("call count missing in row %v", row)
		}
	}
	// The winning-region count must never exceed the parallel total, and the
	// model-first probes must not cost more than the sweep they go ahead of.
	for i := 0; i+3 < len(tab.Rows); i += 4 {
		winning := tab.Rows[i][2].(int)
		total := tab.Rows[i+1][2].(int)
		if winning > total {
			t.Errorf("winning region calls %d exceed parallel total %d", winning, total)
		}
		model := tab.Rows[i+3]
		if model[1] != "FRaZ (model first)" || model[2].(int) > total || model[4] != tab.Rows[i+1][4] {
			t.Errorf("model-first row %v against the sweep's %v", model, tab.Rows[i+1])
		}
	}
}

func TestDirectExperimentContrast(t *testing.T) {
	tab, err := Direct(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tab, 3)
	for _, row := range tab.Rows {
		name := row[0].(string)
		evals := row[2].(int)
		direct := row[4].(bool)
		if name == "frsz:rate" {
			if evals != 0 || !direct {
				t.Errorf("frsz:rate should tune directly with 0 evaluations, got evals=%d direct=%v", evals, direct)
			}
			if !row[6].(bool) {
				t.Errorf("frsz:rate direct tune should converge, row %v", row)
			}
		} else if evals <= 0 || direct {
			t.Errorf("%s should pay search evaluations (evals=%d direct=%v)", name, evals, direct)
		}
	}
}

func TestTimedCompressor(t *testing.T) {
	c := mustCompressor("sz:abs")
	timed := newTimedCompressor(c)
	d, _ := dataset.New("EXAALT", dataset.ScaleTiny)
	buf, err := fieldBuffer(d, "x", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := pressio.Ratio(timed, buf, 1e-3); err != nil {
		t.Fatal(err)
	}
	if timed.Calls() != 1 {
		t.Errorf("expected 1 call, got %d", timed.Calls())
	}
	if timed.CompressionTime() <= 0 {
		t.Errorf("compression time should be positive")
	}

	// The wrapper keeps the descriptor of what it wraps, so a fixed-rate
	// codec behind it still satisfies a ratio target directly: no search, no
	// Compress call to time.
	rate := newTimedCompressor(mustCompressor("frsz:rate"))
	res, err := tuneOnce(rate, buf, 8, 0.1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Direct || res.Iterations != 0 || rate.Calls() != 0 {
		t.Errorf("frsz:rate behind the wrapper: direct=%v after %d evaluations and %d Compress calls, want the direct path",
			res.Direct, res.Iterations, rate.Calls())
	}
}

func TestRegionAblation(t *testing.T) {
	tab, err := RegionAblation(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tab, 5)
	for _, row := range tab.Rows {
		total := row[3].(int)
		winning := row[4].(int)
		if winning > total {
			t.Errorf("winning-region calls %d exceed total %d in row %v", winning, total, row)
		}
	}
}

func TestLosslessMotivation(t *testing.T) {
	tab, err := LosslessMotivation(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tab, 5)
	lossyWins := 0
	for _, row := range tab.Rows {
		lossless := row[2].(float64)
		lossy := row[3].(float64)
		if lossless <= 0 || lossy <= 0 {
			t.Errorf("non-positive ratio in row %v", row)
		}
		if lossy > lossless {
			lossyWins++
		}
	}
	if lossyWins < 4 {
		t.Errorf("error-bounded lossy compression should beat lossless on most fields, won %d/5", lossyWins)
	}
}

func TestObjectivesExperiment(t *testing.T) {
	tab, err := Objectives(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Quick config: one codec, four objectives.
	checkTable(t, tab, 4)
}

func TestPrecisionComparesBothWidths(t *testing.T) {
	tab, err := Precision(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	rows := tab.Rows
	if len(rows) == 0 || len(rows)%2 != 0 {
		t.Fatalf("precision table should pair float32/float64 rows, got %d rows", len(rows))
	}
	for i := 0; i < len(rows); i += 2 {
		if rows[i][1] != "float32" || rows[i+1][1] != "float64" {
			t.Fatalf("row pair %d dtypes = %v / %v", i/2, rows[i][1], rows[i+1][1])
		}
		if rows[i][0] != rows[i+1][0] {
			t.Fatalf("row pair %d compares different fields: %v vs %v", i/2, rows[i][0], rows[i+1][0])
		}
	}
}
