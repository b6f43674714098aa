package server

import (
	"time"

	"drqos/internal/estimator"
	"drqos/internal/forecast"
)

// Forecaster returns the live analytic control plane, or nil when the
// server was built without Options.Forecast.
func (s *Server) Forecaster() *forecast.Forecaster { return s.fc }

// ForecastEnvelope wraps GET /v1/forecast: availability (no solve has
// succeeded yet → available:false with the blocking reason), the age of the
// served solution, the predictive-overload latch, and the forecast itself.
type ForecastEnvelope struct {
	Available         bool               `json:"available"`
	Reason            string             `json:"reason,omitempty"`
	AgeSeconds        float64            `json:"age_seconds,omitempty"`
	PredictedOverload bool               `json:"predicted_overload"`
	Forecast          *forecast.Forecast `json:"forecast,omitempty"`
}

// ForecastStats is the forecast section of GET /v1/stats: the live
// estimator's model and solve-loop health, without the solved distribution
// (that lives on /v1/forecast).
type ForecastStats struct {
	Available            bool    `json:"available"`
	Stale                bool    `json:"stale"`
	PredictedOverload    bool    `json:"predicted_overload"`
	Seq                  int64   `json:"seq"`
	Solves               int64   `json:"solves"`
	SolveErrors          int64   `json:"solve_errors"`
	LastError            string  `json:"last_error,omitempty"`
	AgeSeconds           float64 `json:"age_seconds"`
	SolveDurationSeconds float64 `json:"solve_duration_seconds"`
	MeanBandwidthKbps    float64 `json:"mean_bandwidth_kbps"`
	Saturated            bool    `json:"saturated"`
	// Model is the measured window of the served forecast.
	estimator.Model
}

// forecastStats summarizes the forecaster for /v1/stats and /metrics. Nil
// when forecasting is disabled.
func forecastStats(fc *forecast.Forecaster) *ForecastStats {
	if fc == nil {
		return nil
	}
	solves, solveErrors, lastErr := fc.Status()
	fs := &ForecastStats{
		PredictedOverload: fc.Predicted(),
		Solves:            solves,
		SolveErrors:       solveErrors,
		LastError:         lastErr,
	}
	cur := fc.Current()
	if cur == nil {
		return fs
	}
	fs.Available = true
	fs.Stale = cur.Stale
	fs.Seq = cur.Seq
	fs.AgeSeconds = time.Since(cur.SolvedAt).Seconds()
	fs.SolveDurationSeconds = cur.SolveDurationSeconds
	fs.MeanBandwidthKbps = cur.MeanBandwidthKbps
	fs.Saturated = cur.Saturated
	fs.Model = cur.Model
	return fs
}
