package forest

import (
	"bytes"
	"encoding/gob"
	"math"
	"os"
	"testing"
)

// gobFixture is the layout of testdata/forest-v1.gob: a fitted forest
// plus probe rows and the predictions it made when it was written.
type gobFixture struct {
	Model  *Model
	Probes [][]float64
	Want   []float64
}

// TestDecodesSpillWithRemovedConfigFields: forest-v1.gob was written
// by a build whose forest and tree configs still carried the Bins,
// Workers and ParallelFrontier fields. A persisted snapshot holds
// models in this encoding, so it must still decode — gob drops the
// fields this build no longer has — and predict bit-identically, both
// against the recorded predictions and against a fresh fit of the same
// configuration.
func TestDecodesSpillWithRemovedConfigFields(t *testing.T) {
	data, err := os.ReadFile("testdata/forest-v1.gob")
	if err != nil {
		t.Fatal(err)
	}
	var fx gobFixture
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&fx); err != nil {
		t.Fatalf("decoding a pre-upgrade forest: %v", err)
	}
	x, y := pinDataset(120, 4, 42)
	fresh := New(Config{NEstimators: 6, MaxDepth: 5, MinSamplesLeaf: 2, Seed: 7})
	if err := fresh.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if fx.Model.Config != fresh.Config {
		t.Fatalf("decoded config %+v, want %+v", fx.Model.Config, fresh.Config)
	}
	got, again := fx.Model.PredictBatch(fx.Probes), fresh.PredictBatch(fx.Probes)
	for i, want := range fx.Want {
		if math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("probe %d: decoded forest predicts %v, recorded %v", i, got[i], want)
		}
		if math.Float64bits(again[i]) != math.Float64bits(want) {
			t.Fatalf("probe %d: fresh fit predicts %v, recorded %v", i, again[i], want)
		}
	}
}
