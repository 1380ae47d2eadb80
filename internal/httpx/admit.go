package httpx

import (
	"fmt"
	"net/http"

	"repro/internal/metrics"
)

// AdmissionConfig tunes overload backpressure for one heavy endpoint.
// The zero value admits everything.
type AdmissionConfig struct {
	// MaxQueue bounds accepted-but-unfinished requests on the wrapped
	// endpoint (the accept queue), and doubles as the ceiling on the
	// Depth signal. 0 disables shedding.
	MaxQueue int
	// Depth, when non-nil, reports a deeper congestion signal — the
	// engine's count of requests waiting for an execution slot, which
	// also covers pressure arriving through other endpoints.
	Depth func() int
}

// Admission applies bounded-accept-queue shedding to one endpoint:
// requests past the bound answer 429 with Retry-After immediately
// instead of queueing unboundedly, so the server keeps answering its
// control plane at overload. Every shed is counted in the endpoint's
// RED series.
type Admission struct {
	cfg AdmissionConfig
	sem chan struct{}
}

// NewAdmission builds an admission controller; each controller owns
// its own accept queue (wrap /run and /sweeps separately so one cannot
// starve the other).
func NewAdmission(cfg AdmissionConfig) *Admission {
	a := &Admission{cfg: cfg}
	if cfg.MaxQueue > 0 {
		a.sem = make(chan struct{}, cfg.MaxQueue)
	}
	return a
}

// Wrap guards next with the admission checks, counting rejections into
// series as shed requests.
func (a *Admission) Wrap(series *metrics.Series, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if a.sem != nil {
			select {
			case a.sem <- struct{}{}:
				defer func() { <-a.sem }()
			default:
				shed(w, series, fmt.Sprintf("accept queue full (%d deep)", a.cfg.MaxQueue))
				return
			}
		}
		if a.cfg.Depth != nil && a.cfg.MaxQueue > 0 {
			if d := a.cfg.Depth(); d >= a.cfg.MaxQueue {
				shed(w, series, fmt.Sprintf("engine queue depth %d at limit %d", d, a.cfg.MaxQueue))
				return
			}
		}
		next.ServeHTTP(w, r)
	})
}

// shed answers 429 + Retry-After: 1 and counts the decision. Failing
// fast is the point: the client learns to back off in microseconds
// instead of occupying a connection for seconds.
func shed(w http.ResponseWriter, series *metrics.Series, reason string) {
	if series != nil {
		series.CountShed()
	}
	w.Header().Set("Retry-After", "1")
	Error(w, http.StatusTooManyRequests, fmt.Errorf("server overloaded: %s", reason))
}
