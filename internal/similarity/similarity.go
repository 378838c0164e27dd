// Package similarity implements measures for comparing per-vehicle
// utilization series. The paper's deployed system uses the point-wise
// average distance (§4.4.1) and explicitly notes that "more advanced
// similarity measures (e.g., [9] — generalized dynamic time warping) can
// be integrated as well"; this package provides both, plus a constrained
// (Sakoe-Chiba band) DTW variant, so the DTW-similarity ablation (see
// ARCHITECTURE.md) can compare them.
package similarity

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/timeseries"
)

// ErrEmpty is returned when either input series is empty.
var ErrEmpty = errors.New("similarity: empty series")

// Measure computes a dissimilarity between two series; lower = more
// similar.
type Measure interface {
	// Distance returns the dissimilarity between a and b.
	Distance(a, b timeseries.Series) (float64, error)
	// Name identifies the measure in reports.
	Name() string
}

// AvgDistance is the paper's point-wise average absolute distance,
// truncating to the common prefix length.
type AvgDistance struct{}

// Name returns "avg".
func (AvgDistance) Name() string { return "avg" }

// Distance returns mean |a_i − b_i| over the common prefix.
func (AvgDistance) Distance(a, b timeseries.Series) (float64, error) {
	d, err := timeseries.AvgDistance(a, b)
	if err != nil {
		return 0, fmt.Errorf("similarity: %w", err)
	}
	return d, nil
}

// DTW is unconstrained dynamic time warping with absolute-difference
// local cost, normalized by the warping-path length so series of
// different lengths compare fairly.
type DTW struct{}

// Name returns "dtw".
func (DTW) Name() string { return "dtw" }

// Distance returns the path-normalized DTW distance.
func (DTW) Distance(a, b timeseries.Series) (float64, error) {
	return dtw(a, b, -1)
}

// BandedDTW is DTW constrained to a Sakoe-Chiba band, trading warping
// flexibility for O(n·band) cost and robustness against pathological
// alignments.
type BandedDTW struct {
	// Band is the half-width of the admissible |i−j| corridor; it must
	// be positive.
	Band int
}

// Name returns "dtw-band<k>".
func (m BandedDTW) Name() string { return fmt.Sprintf("dtw-band%d", m.Band) }

// Distance returns the banded, path-normalized DTW distance.
func (m BandedDTW) Distance(a, b timeseries.Series) (float64, error) {
	if m.Band <= 0 {
		return 0, fmt.Errorf("similarity: band must be positive, got %d", m.Band)
	}
	return dtw(a, b, m.Band)
}

// dtw computes path-normalized DTW; band < 0 disables the constraint.
// The DP is rolled over two rows to keep memory at O(len(b)).
func dtw(a, b timeseries.Series, band int) (float64, error) {
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		return 0, ErrEmpty
	}
	// With a band, widen it to at least |n−m| so a path exists.
	if band >= 0 {
		if d := n - m; d < 0 {
			if band < -d {
				band = -d
			}
		} else if band < d {
			band = d
		}
	}

	type cell struct {
		cost float64
		len  int
	}
	inf := cell{math.Inf(1), 0}
	prev := make([]cell, m+1)
	cur := make([]cell, m+1)
	for j := range prev {
		prev[j] = inf
	}
	prev[0] = cell{0, 0}

	for i := 1; i <= n; i++ {
		for j := range cur {
			cur[j] = inf
		}
		lo, hi := 1, m
		if band >= 0 {
			lo = i - band
			if lo < 1 {
				lo = 1
			}
			hi = i + band
			if hi > m {
				hi = m
			}
		}
		for j := lo; j <= hi; j++ {
			c := math.Abs(a[i-1] - b[j-1])
			best := prev[j-1] // match
			if prev[j].cost < best.cost {
				best = prev[j] // insertion
			}
			if cur[j-1].cost < best.cost {
				best = cur[j-1] // deletion
			}
			if math.IsInf(best.cost, 1) {
				continue
			}
			cur[j] = cell{best.cost + c, best.len + 1}
		}
		prev, cur = cur, prev
	}
	final := prev[m]
	if math.IsInf(final.cost, 1) {
		return 0, fmt.Errorf("similarity: no admissible warping path (band too narrow for %dx%d)", n, m)
	}
	if final.len == 0 {
		return 0, nil
	}
	return final.cost / float64(final.len), nil
}

// MostSimilar returns the index of the candidate minimizing the measure
// against the probe, together with the distance.
func MostSimilar(probe timeseries.Series, candidates []timeseries.Series, m Measure) (int, float64, error) {
	if len(candidates) == 0 {
		return -1, 0, errors.New("similarity: no candidates")
	}
	bestIdx, bestDist := -1, math.Inf(1)
	for i, c := range candidates {
		d, err := m.Distance(probe, c)
		if err != nil {
			return -1, 0, fmt.Errorf("similarity: candidate %d: %w", i, err)
		}
		if d < bestDist {
			bestDist = d
			bestIdx = i
		}
	}
	return bestIdx, bestDist, nil
}
