// Package repro's root benchmark harness: one benchmark per paper table
// and figure (regenerating the experiment at reduced scale), the §5.1
// per-algorithm training-time study, and the ablations listed in
// ARCHITECTURE.md.
//
// Run with: go test -bench=. -benchmem
package repro

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/anomaly"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/forecast"
	"repro/internal/ml"
	"repro/internal/ml/forest"
	"repro/internal/ml/gbm"
	"repro/internal/ml/tree"
	"repro/internal/rng"
	"repro/internal/similarity"
	"repro/internal/telematics"
	"repro/internal/timeseries"
)

var (
	benchOnce sync.Once
	benchEnv  *experiments.Env
	benchErr  error
)

// env lazily builds a shared small-scale environment; benchmarks must
// not mutate it.
func env(b *testing.B) *experiments.Env {
	b.Helper()
	benchOnce.Do(func() {
		s := experiments.SmallScale()
		s.Corrupt = true
		benchEnv, benchErr = experiments.NewEnv(s)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchEnv
}

var (
	fleet24Once sync.Once
	fleet24Env  *experiments.Env
	fleet24Err  error
)

// fleet24 lazily builds the paper-scale 24-vehicle fleet used by the
// fleet-training benchmarks.
func fleet24(b *testing.B) *experiments.Env {
	b.Helper()
	fleet24Once.Do(func() {
		s := experiments.FullScale()
		fleet24Env, fleet24Err = experiments.NewEnv(s)
	})
	if fleet24Err != nil {
		b.Fatal(fleet24Err)
	}
	return fleet24Env
}

// benchFleetTrain measures one full deployed-system training run — all
// 24 vehicles, candidate competition per old vehicle, cold-start
// strategies for the rest — through the engine's worker pool.
func benchFleetTrain(b *testing.B, workers int) {
	e := fleet24(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, err := e.TrainFleet(context.Background(), workers)
		if err != nil {
			b.Fatal(err)
		}
		if len(snap.Statuses) != e.Scale.Vehicles {
			b.Fatalf("trained %d of %d vehicles", len(snap.Statuses), e.Scale.Vehicles)
		}
	}
}

// BenchmarkFleetTrain is the sequential reference (worker pool of 1).
func BenchmarkFleetTrain(b *testing.B) { benchFleetTrain(b, 1) }

// BenchmarkFleetTrainParallel scales the pool; per-vehicle seed
// derivation makes every variant bit-identical to BenchmarkFleetTrain,
// so the speedup is pure scheduling (expect ~linear until the core
// count or the slowest single vehicle dominates).
func BenchmarkFleetTrainParallel(b *testing.B) {
	for _, workers := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) { benchFleetTrain(b, workers) })
	}
}

// BenchmarkIncrementalRetrain measures the telemetry-update steady
// state: a retrain after exactly one of the 24 vehicles received new
// telemetry. The engine carries the 23 clean vehicles' models forward
// (hash-gated reuse), so the cost is O(changed vehicles) — expect this
// to beat BenchmarkFleetTrain by roughly the fleet size. Alternating
// between the base fleet and a one-vehicle perturbation keeps every
// iteration at exactly one dirty vehicle.
func BenchmarkIncrementalRetrain(b *testing.B) {
	e := fleet24(b)
	cfg := core.DefaultPredictorConfig()
	cfg.Seed = e.Scale.Seed
	eng, err := engine.New(engine.Config{Predictor: cfg, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	base := e.FleetVehicles()
	dirty := append([]engine.Vehicle(nil), base...)
	u := base[0].Series.U.Clone()
	u = append(u, u[len(u)-1])
	pert, err := timeseries.Derive(base[0].Series.ID, u, base[0].Series.Allowance)
	if err != nil {
		b.Fatal(err)
	}
	dirty[0] = engine.Vehicle{Series: pert, Start: base[0].Start}
	if _, err := eng.Retrain(context.Background(), base); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fleet := base
		if i%2 == 0 {
			fleet = dirty
		}
		snap, err := eng.Retrain(context.Background(), fleet)
		if err != nil {
			b.Fatal(err)
		}
		if snap.Retrained != 1 {
			b.Fatalf("retrained %d vehicles, want 1", snap.Retrained)
		}
	}
}

// BenchmarkFig1DataGeneration measures the full data path behind
// Figures 1–3: fleet synthesis plus the §3 preparation pipeline.
func BenchmarkFig1DataGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.SmallScale()
		s.Corrupt = true
		if _, err := experiments.NewEnv(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1 regenerates Table 1 (all five algorithms, both
// training regimes).
func BenchmarkTable1(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Table1(0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4WindowSweep regenerates the Figure-4 window sweep.
func BenchmarkFig4WindowSweep(b *testing.B) {
	e := env(b)
	windows := []int{0, 3, 6}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Figure4(windows); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5 regenerates the per-day error curves of Figure 5.
func BenchmarkFig5(b *testing.B) {
	e := env(b)
	t2 := []experiments.Table2Row{{Algorithm: core.RF, BestW: 3}, {Algorithm: core.BL, BestW: 0}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Figure5(t2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3 regenerates the cold-start study of Table 3.
func BenchmarkTable3(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Table3(3); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTrain measures the per-vehicle training cost of one algorithm at
// one window — the §5.1 timing table (XGB slowest, RF next, BL/LR/LSVR
// fast; cost grows super-linearly with W).
func benchTrain(b *testing.B, alg core.Algorithm, window int) {
	e := env(b)
	vs := e.Olds[0]
	cfg := core.NewOldConfig()
	cfg.Window = window
	cfg.RestrictTrain = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EvaluateOld(vs, alg, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrainBL(b *testing.B)   { benchTrain(b, core.BL, 0) }
func BenchmarkTrainLR(b *testing.B)   { benchTrain(b, core.LR, 0) }
func BenchmarkTrainLSVR(b *testing.B) { benchTrain(b, core.LSVR, 0) }
func BenchmarkTrainRF(b *testing.B)   { benchTrain(b, core.RF, 0) }
func BenchmarkTrainXGB(b *testing.B)  { benchTrain(b, core.XGB, 0) }

// Window-growth series for the "more than linearly with W" claim.
func BenchmarkTrainRF_W0(b *testing.B)  { benchTrain(b, core.RF, 0) }
func BenchmarkTrainRF_W6(b *testing.B)  { benchTrain(b, core.RF, 6) }
func BenchmarkTrainRF_W18(b *testing.B) { benchTrain(b, core.RF, 18) }

// BenchmarkPredict measures single-forecast latency of a fitted model —
// the quantity a deployed scheduler cares about.
func BenchmarkPredict(b *testing.B) {
	e := env(b)
	vs := e.Olds[0]
	cfg := core.NewOldConfig()
	cfg.Window = 6
	cfg.RestrictTrain = true
	res, err := core.EvaluateOld(vs, core.RF, cfg)
	if err != nil {
		b.Fatal(err)
	}
	recs, err := core.BuildRecords(vs, core.FeatureConfig{Window: 6, Normalize: true})
	if err != nil || len(recs) == 0 {
		b.Fatalf("no records: %v", err)
	}
	x := recs[len(recs)-1].X
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = res.Model.Predict(x)
	}
}

// Ablation benchmarks (ARCHITECTURE.md, "Reproduction substitutions and
// ablations").

func BenchmarkAblationPooledVsPerVehicle(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.AblationPooledVsPerVehicle(core.RF, 3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationAugmentation(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.AblationAugmentation(core.RF, 3, 3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationHistogramBins(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.AblationHistogramBins(3, []int{8, 256}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimilarityMeasures contrasts the paper's point-wise distance
// with the DTW extension on realistic series lengths.
func BenchmarkSimilarityMeasures(b *testing.B) {
	e := env(b)
	a := e.Olds[0].U.Slice(0, 120)
	c := e.Olds[1%len(e.Olds)].U.Slice(0, 120)
	b.Run("avg", func(b *testing.B) {
		m := similarity.AvgDistance{}
		for i := 0; i < b.N; i++ {
			if _, err := m.Distance(a, c); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dtw", func(b *testing.B) {
		m := similarity.DTW{}
		for i := 0; i < b.N; i++ {
			if _, err := m.Distance(a, c); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dtw-band14", func(b *testing.B) {
		m := similarity.BandedDTW{Band: 14}
		for i := 0; i < b.N; i++ {
			if _, err := m.Distance(a, c); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFleetGeneration isolates the telematics simulator.
func BenchmarkFleetGeneration(b *testing.B) {
	cfg := telematics.DefaultFleetConfig()
	cfg.Vehicles = 8
	cfg.Days = 1100
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := telematics.GenerateFleet(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDerive isolates the §2 series derivation.
func BenchmarkDerive(b *testing.B) {
	e := env(b)
	u := e.Olds[0].U
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := timeseries.Derive("v", u, timeseries.DefaultAllowance); err != nil {
			b.Fatal(err)
		}
	}
}

// mlBenchSizes are the training-set sizes the split-engine
// micro-benchmarks sweep; 200 is roughly one vehicle's restricted
// training set, 20000 a pooled multi-vehicle one.
var mlBenchSizes = []int{200, 2000, 20000}

// mlBenchData draws a deterministic synthetic regression dataset with a
// realistic mix of column shapes: quantized (tie-heavy), continuous,
// and low-cardinality features.
func mlBenchData(n, p int, seed uint64) ([][]float64, []float64) {
	rnd := rng.New(seed)
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = make([]float64, p)
		for j := range x[i] {
			switch j % 3 {
			case 0:
				x[i][j] = rnd.Float64() * 10
			case 1:
				x[i][j] = float64(rnd.Intn(50)) / 5
			default:
				x[i][j] = float64(rnd.Intn(7))
			}
		}
		y[i] = 3*x[i][0] - 2*x[i][1%p] + rnd.NormFloat64()
	}
	return x, y
}

// BenchmarkTreeFit measures a single exact-engine CART fit across
// training-set sizes (the unit of work both ensembles multiply).
func BenchmarkTreeFit(b *testing.B) {
	for _, n := range mlBenchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			x, y := mlBenchData(n, 6, 42)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := tree.New(tree.Config{MaxDepth: 12, MinSamplesLeaf: 2})
				if err := m.Fit(x, y); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkForestFit measures a 20-tree forest fit: all trees share one
// presorted matrix and train from bootstrap multiplicities.
func BenchmarkForestFit(b *testing.B) {
	for _, n := range mlBenchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			x, y := mlBenchData(n, 6, 42)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := forest.New(forest.Config{NEstimators: 20, MaxDepth: 12, MinSamplesLeaf: 2, Seed: 7})
				if err := m.Fit(x, y); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGBMFit measures a 50-round boosted fit: binning happens once,
// every round reuses the trainer's buffers.
func BenchmarkGBMFit(b *testing.B) {
	for _, n := range mlBenchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			x, y := mlBenchData(n, 6, 42)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := gbm.New(gbm.Config{NEstimators: 50, MaxDepth: 6, Seed: 7})
				if err := m.Fit(x, y); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGridSearchCV measures the paper's 5-fold tuned selection for
// one vehicle and one algorithm on the coarse grid.
func BenchmarkGridSearchCV(b *testing.B) {
	e := env(b)
	vs := e.Olds[0]
	cfg := core.NewOldConfig()
	cfg.RestrictTrain = true
	cfg.GridSearch = true
	cfg.Grid = ml.Grid{"depth": {5, 10}, "estimators": {50, 100}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EvaluateOld(vs, core.RF, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWalkForward measures the rolling-origin evaluation protocol.
func BenchmarkWalkForward(b *testing.B) {
	e := env(b)
	vs := e.Olds[0]
	cfg := core.NewWalkForwardConfig()
	cfg.InitialTrainDays = 400
	cfg.StepDays = 120
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EvaluateWalkForward(vs, core.RF, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetClustering measures usage-profile extraction plus
// k-means over the fleet (the intro's analysis (ii)).
func BenchmarkFleetClustering(b *testing.B) {
	e := env(b)
	var points [][]float64
	for _, vs := range e.Olds {
		f, err := cluster.UsageFeatures(vs.U)
		if err != nil {
			b.Fatal(err)
		}
		points = append(points, f)
	}
	k := 3
	if k > len(points) {
		k = len(points)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.KMeans(points, cluster.Config{K: k, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUsageForecast measures fitting + 30-day horizon of the
// usage forecaster (the intro's analysis (i)).
func BenchmarkUsageForecast(b *testing.B) {
	e := env(b)
	u := e.Olds[0].U
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := forecast.New(forecast.DefaultConfig())
		if err := f.Fit(u); err != nil {
			b.Fatal(err)
		}
		if _, err := f.Horizon(u, 30); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDriftDetection measures the anomaly detector over a day of
// 10-minute reports (the intro's analysis (iii)).
func BenchmarkDriftDetection(b *testing.B) {
	rnd := rng.New(5)
	var reports []telematics.SummaryReport
	t0 := time.Date(2019, 6, 3, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 144; i++ {
		reports = append(reports, telematics.SummaryReport{
			VehicleID:      "v1",
			PeriodStart:    t0.Add(time.Duration(i) * 10 * time.Minute),
			PeriodEnd:      t0.Add(time.Duration(i+1) * 10 * time.Minute),
			WorkSeconds:    590,
			AvgEngineSpeed: 1900 + rnd.NormFloat64()*20,
			MinOilPressure: 350 + rnd.NormFloat64()*8,
			MaxCoolantTemp: 95 + rnd.NormFloat64()*1.5,
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := anomaly.DetectDrift(reports, anomaly.DefaultDriftConfig()); err != nil {
			b.Fatal(err)
		}
	}
}
