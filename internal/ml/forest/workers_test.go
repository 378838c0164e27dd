package forest

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/rng"
)

// workersDataset draws a dataset large enough that every member tree
// grows deep.
func workersDataset(n, p int, seed uint64) ([][]float64, []float64) {
	rnd := rng.New(seed)
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = make([]float64, p)
		for j := range x[i] {
			if j%2 == 0 {
				x[i][j] = float64(rnd.Intn(16)) / 4
			} else {
				x[i][j] = rnd.Float64() * 10
			}
		}
		y[i] = 3*x[i][0] - 2*x[i][1%p] + rnd.NormFloat64()
	}
	return x, y
}

// TestWorkersBitIdentical pins the forest's scheduling contract: the
// across-tree pool is sized from GOMAXPROCS, and the fitted forest must
// be bit-identical at every size — tree seeds derive from sequential
// sub-streams regardless of which tree a worker picks up. Trees,
// predictions and importances compare exactly.
func TestWorkersBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("large dataset")
	}
	x, y := workersDataset(3000, 4, 11)
	cfg := Config{NEstimators: 6, MaxDepth: 8, MinSamplesLeaf: 2, Seed: 7}
	fit := func(procs int) *Model {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		m := New(cfg)
		if err := m.Fit(x, y); err != nil {
			t.Fatalf("GOMAXPROCS=%d: fit: %v", procs, err)
		}
		return m
	}
	ref := fit(1)
	refPred := ref.PredictBatch(x)
	refImp, err := ref.Importances()
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{2, 4} {
		m := fit(procs)
		label := fmt.Sprintf("GOMAXPROCS=%d", procs)
		for i, tr := range m.trees {
			// The tree codec writes the node array verbatim, so equal
			// encodings mean equal trees.
			want, err := ref.trees[i].GobEncode()
			if err != nil {
				t.Fatal(err)
			}
			got, err := tr.GobEncode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: tree %d differs from the GOMAXPROCS=1 fit", label, i)
			}
		}
		pred := m.PredictBatch(x)
		for i := range pred {
			if pred[i] != refPred[i] {
				t.Fatalf("%s: prediction %d: %v != serial %v", label, i, pred[i], refPred[i])
			}
		}
		imp, err := m.Importances()
		if err != nil {
			t.Fatalf("%s: importances: %v", label, err)
		}
		for j := range imp {
			if imp[j] != refImp[j] {
				t.Fatalf("%s: importance %d: %v != serial %v", label, j, imp[j], refImp[j])
			}
		}
	}
}
