package gbm

import (
	"bytes"
	"encoding/gob"
	"math"
	"os"
	"testing"
)

// gobFixture is the layout of testdata/gbm-v1.gob: a fitted booster
// plus probe rows and the predictions it made when it was written.
type gobFixture struct {
	Model  *Model
	Probes [][]float64
	Want   []float64
}

// TestDecodesSpillWithRemovedConfigFields: gbm-v1.gob was written by a
// build whose Config still carried the Workers field. A persisted
// snapshot holds models in this encoding, so it must still decode —
// gob drops the field this build no longer has — and predict
// bit-identically, both against the recorded predictions and against a
// fresh fit of the same configuration.
func TestDecodesSpillWithRemovedConfigFields(t *testing.T) {
	data, err := os.ReadFile("testdata/gbm-v1.gob")
	if err != nil {
		t.Fatal(err)
	}
	var fx gobFixture
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&fx); err != nil {
		t.Fatalf("decoding a pre-upgrade booster: %v", err)
	}
	x, y := pinDataset(120, 4, 42)
	fresh := New(Config{NEstimators: 12, MaxDepth: 3, Seed: 3, Subsample: 0.8})
	if err := fresh.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if fx.Model.Config != fresh.Config {
		t.Fatalf("decoded config %+v, want %+v", fx.Model.Config, fresh.Config)
	}
	ensemblesEqual(t, "decoded vs fresh", fx.Model, fresh)
	got, again := fx.Model.PredictBatch(fx.Probes), fresh.PredictBatch(fx.Probes)
	for i, want := range fx.Want {
		if math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("probe %d: decoded booster predicts %v, recorded %v", i, got[i], want)
		}
		if math.Float64bits(again[i]) != math.Float64bits(want) {
			t.Fatalf("probe %d: fresh fit predicts %v, recorded %v", i, again[i], want)
		}
	}
}
