// Package telematics simulates the data-acquisition substrate the paper
// relies on: CAN bus signals sampled on board industrial vehicles,
// aggregated by an on-board controller into periodic summary reports,
// shipped to a cloud collector, and finally reduced to the per-vehicle
// daily utilization series U_v(t) that the prediction pipeline consumes.
//
// The real system (Tierra S.p.A. telematics) is proprietary and its data
// is unavailable; this package is the documented substitution
// (ARCHITECTURE.md, "Reproduction substitutions and ablations"). It reproduces the statistical properties the paper reports —
// heterogeneous usage levels, weekly and annual seasonality, multi-week
// idle periods, sudden site relocations, and the ~30 % lower utilization
// during the first maintenance cycle — so that every downstream component
// is exercised on data with the same shape as the original.
package telematics

import (
	"fmt"
	"math"
	"time"

	"repro/internal/rng"
)

// Frame is a decoded CAN bus message as produced by the on-board sensors
// and Machine Control Systems (paper §3: "messages for CAN at a frequency
// of approximately 100 Hz").
type Frame struct {
	// VehicleID identifies the emitting vehicle.
	VehicleID string
	// Timestamp is the acquisition instant.
	Timestamp time.Time
	// EngineSpeed is the engine rotational speed in RPM.
	EngineSpeed float64
	// OilPressure is the engine oil pressure in kPa.
	OilPressure float64
	// CoolantTemp is the engine coolant temperature in °C.
	CoolantTemp float64
	// Working reports whether the machine is actively operating (the
	// signal the utilization time is derived from).
	Working bool
}

// FrameGenConfig configures the frame-level signal synthesizer.
type FrameGenConfig struct {
	// Rate is the frame emission rate in Hz (paper: ~100 Hz). Values
	// below 1 are rejected by NewFrameGen.
	Rate float64
	// IdleRPM and WorkRPM bound the engine-speed signal.
	IdleRPM, WorkRPM float64
	// OilPressureNominal is the working-state oil pressure in kPa.
	OilPressureNominal float64
	// CoolantNominal is the working-state coolant temperature in °C.
	CoolantNominal float64
}

// DefaultFrameGenConfig returns the configuration used across the repo:
// 100 Hz emission, plausible diesel-engine operating points.
func DefaultFrameGenConfig() FrameGenConfig {
	return FrameGenConfig{
		Rate:               100,
		IdleRPM:            800,
		WorkRPM:            1900,
		OilPressureNominal: 420,
		CoolantNominal:     88,
	}
}

// FrameGen synthesizes CAN frames for work sessions of a single vehicle.
type FrameGen struct {
	cfg FrameGenConfig
	rnd *rng.Source
	id  string
}

// NewFrameGen builds a frame generator for one vehicle.
func NewFrameGen(vehicleID string, cfg FrameGenConfig, rnd *rng.Source) (*FrameGen, error) {
	if cfg.Rate < 1 {
		return nil, fmt.Errorf("telematics: frame rate %.2f Hz below 1 Hz", cfg.Rate)
	}
	if vehicleID == "" {
		return nil, fmt.Errorf("telematics: empty vehicle id")
	}
	return &FrameGen{cfg: cfg, rnd: rnd, id: vehicleID}, nil
}

// Session emits the frames of one continuous work session starting at
// start and lasting the given duration. The emitted stream alternates
// short idle warm-up/cool-down phases with the working phase, so the
// controller's working-time accounting is exercised on realistic input.
// The emit callback receives every frame; returning false aborts early.
func (g *FrameGen) Session(start time.Time, duration time.Duration, emit func(Frame) bool) int {
	if duration <= 0 {
		return 0
	}
	dt := time.Duration(float64(time.Second) / g.cfg.Rate)
	total := int(duration / dt)
	warm := total / 20 // ~5 % warm-up idle
	cool := total / 40 // ~2.5 % cool-down idle
	count := 0
	for i := 0; i < total; i++ {
		working := i >= warm && i < total-cool
		f := Frame{
			VehicleID: g.id,
			Timestamp: start.Add(time.Duration(i) * dt),
			Working:   working,
		}
		if working {
			f.EngineSpeed = g.cfg.WorkRPM + 120*g.rnd.NormFloat64()
			f.OilPressure = g.cfg.OilPressureNominal + 15*g.rnd.NormFloat64()
			f.CoolantTemp = g.cfg.CoolantNominal + 2.5*g.rnd.NormFloat64()
		} else {
			f.EngineSpeed = g.cfg.IdleRPM + 40*g.rnd.NormFloat64()
			f.OilPressure = 0.55*g.cfg.OilPressureNominal + 10*g.rnd.NormFloat64()
			f.CoolantTemp = g.cfg.CoolantNominal - 12 + 3*g.rnd.NormFloat64()
		}
		if f.EngineSpeed < 0 {
			f.EngineSpeed = 0
		}
		count++
		if !emit(f) {
			return count
		}
	}
	return count
}

// SummaryReport is the controller's periodic aggregation of raw frames
// (paper §3: "a controller ... periodically generates a summary report,
// and sends it to a cloud server").
type SummaryReport struct {
	VehicleID   string
	PeriodStart time.Time
	PeriodEnd   time.Time
	// WorkSeconds is the seconds spent in Working state in the period.
	WorkSeconds float64
	// FrameCount is the number of frames aggregated.
	FrameCount int
	// AvgEngineSpeed is the mean RPM over working frames.
	AvgEngineSpeed float64
	// MinOilPressure is the minimum observed oil pressure (kPa).
	MinOilPressure float64
	// MaxCoolantTemp is the maximum observed coolant temperature (°C).
	MaxCoolantTemp float64
}

// Controller is the on-board aggregator: it consumes frames and emits one
// SummaryReport per reporting period.
type Controller struct {
	vehicleID string
	period    time.Duration
	rate      float64

	cur      *SummaryReport
	rpmSum   float64
	rpmCount int
	out      []SummaryReport
}

// NewController builds a controller for one vehicle with the given
// reporting period (e.g. 10 minutes).
func NewController(vehicleID string, period time.Duration, frameRate float64) (*Controller, error) {
	if period <= 0 {
		return nil, fmt.Errorf("telematics: non-positive report period %v", period)
	}
	if frameRate < 1 {
		return nil, fmt.Errorf("telematics: frame rate %.2f Hz below 1 Hz", frameRate)
	}
	return &Controller{vehicleID: vehicleID, period: period, rate: frameRate}, nil
}

// Ingest consumes one frame, closing and buffering the current report if
// the frame falls outside the current period. Frames from other vehicles
// are rejected.
func (c *Controller) Ingest(f Frame) error {
	if f.VehicleID != c.vehicleID {
		return fmt.Errorf("telematics: controller for %s received frame from %s", c.vehicleID, f.VehicleID)
	}
	if c.cur != nil && !f.Timestamp.Before(c.cur.PeriodEnd) {
		c.flush()
	}
	if c.cur == nil {
		start := f.Timestamp.Truncate(c.period)
		c.cur = &SummaryReport{
			VehicleID:      c.vehicleID,
			PeriodStart:    start,
			PeriodEnd:      start.Add(c.period),
			MinOilPressure: math.Inf(1),
			MaxCoolantTemp: math.Inf(-1),
		}
		c.rpmSum, c.rpmCount = 0, 0
	}
	c.cur.FrameCount++
	if f.Working {
		c.cur.WorkSeconds += 1.0 / c.rate
		c.rpmSum += f.EngineSpeed
		c.rpmCount++
	}
	if f.OilPressure < c.cur.MinOilPressure {
		c.cur.MinOilPressure = f.OilPressure
	}
	if f.CoolantTemp > c.cur.MaxCoolantTemp {
		c.cur.MaxCoolantTemp = f.CoolantTemp
	}
	return nil
}

func (c *Controller) flush() {
	if c.cur == nil {
		return
	}
	if c.rpmCount > 0 {
		c.cur.AvgEngineSpeed = c.rpmSum / float64(c.rpmCount)
	}
	c.out = append(c.out, *c.cur)
	c.cur = nil
}

// Flush closes the in-progress period (if any) and returns all buffered
// reports, clearing the internal buffer.
func (c *Controller) Flush() []SummaryReport {
	c.flush()
	out := c.out
	c.out = nil
	return out
}
