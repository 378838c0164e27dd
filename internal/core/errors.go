package core

import (
	"fmt"
	"math"
)

// DTilde is a set of "days left" values over which the mean residual
// error is computed (paper §2.1: "a selection of days that are closer to
// the maintenance operation").
type DTilde map[int]bool

// DTildeRange returns the contiguous set {lo, ..., hi}.
func DTildeRange(lo, hi int) DTilde {
	d := make(DTilde, hi-lo+1)
	for v := lo; v <= hi; v++ {
		d[v] = true
	}
	return d
}

// DefaultDTilde is the paper's headline selection: the last 29 days of
// each cycle, D̃ = {1, …, 29}.
func DefaultDTilde() DTilde { return DTildeRange(1, 29) }

// Prediction is one per-day prediction outcome.
type Prediction struct {
	// Day is the absolute day index t in the vehicle series.
	Day int
	// Actual is the true D_v(t).
	Actual int
	// Predicted is the model estimate D̂_v(t).
	Predicted float64
}

// Error returns the signed daily error E_v(t) = D_v(t) − D̂_v(t) (Eq. 2).
func (p Prediction) Error() float64 { return float64(p.Actual) - p.Predicted }

// ErrorReport collects the per-day predictions of one (vehicle, model)
// evaluation and derives the §2.1 aggregates from them.
type ErrorReport struct {
	// VehicleID identifies the evaluated vehicle.
	VehicleID string
	// Model names the evaluated algorithm/configuration.
	Model string
	// Predictions holds one entry per evaluated day.
	Predictions []Prediction
}

// Global returns E_Global: the mean absolute daily error over all
// samples (Eq. 3, magnitude form — see ARCHITECTURE.md, "Reproduction
// substitutions and ablations"). NaN on empty.
func (r *ErrorReport) Global() float64 {
	if len(r.Predictions) == 0 {
		return math.NaN()
	}
	var s float64
	for _, p := range r.Predictions {
		s += math.Abs(p.Error())
	}
	return s / float64(len(r.Predictions))
}

// GlobalSigned returns the signed mean error (the literal Eq. 3), which
// exposes systematic bias: positive means the model predicts maintenance
// too early.
func (r *ErrorReport) GlobalSigned() float64 {
	if len(r.Predictions) == 0 {
		return math.NaN()
	}
	var s float64
	for _, p := range r.Predictions {
		s += p.Error()
	}
	return s / float64(len(r.Predictions))
}

// MRE returns E_MRE(D̃): the mean absolute error over days whose actual
// target falls in D̃ (Eq. 4). NaN when no prediction qualifies.
func (r *ErrorReport) MRE(d DTilde) float64 {
	var s float64
	n := 0
	for _, p := range r.Predictions {
		if d[p.Actual] {
			s += math.Abs(p.Error())
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return s / float64(n)
}

// MRECount returns how many predictions fall inside D̃.
func (r *ErrorReport) MRECount(d DTilde) int {
	n := 0
	for _, p := range r.Predictions {
		if d[p.Actual] {
			n++
		}
	}
	return n
}

// MeanMRE averages the per-vehicle E_MRE(D̃) over a set of reports,
// skipping reports with no qualifying day; this is the fleet-level
// aggregation of §5.1 ("the average of the mean residual errors computed
// over all the test vehicles"). NaN when nothing qualifies.
func MeanMRE(reports []*ErrorReport, d DTilde) float64 {
	var s float64
	n := 0
	for _, r := range reports {
		v := r.MRE(d)
		if !math.IsNaN(v) {
			s += v
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return s / float64(n)
}

// MeanGlobal averages the per-vehicle E_Global over reports.
func MeanGlobal(reports []*ErrorReport) float64 {
	var s float64
	n := 0
	for _, r := range reports {
		v := r.Global()
		if !math.IsNaN(v) {
			s += v
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return s / float64(n)
}

// String summarizes the report for logs.
func (r *ErrorReport) String() string {
	return fmt.Sprintf("ErrorReport{%s/%s: %d days, EGlobal=%.2f, EMRE(1..29)=%.2f}",
		r.VehicleID, r.Model, len(r.Predictions), r.Global(), r.MRE(DefaultDTilde()))
}
