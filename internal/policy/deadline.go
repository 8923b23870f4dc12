package policy

import (
	"sync/atomic"
	"time"
)

// Deadline is the admission element that rejects requests whose deadline
// cannot be met even by an idle server: if the remaining slack is below
// the configured floor (the host's minimum service time — a wake-up and
// one evaluation), queueing the request would only burn a slot before a
// guaranteed 504. Rejecting at ingress converts that to an immediate,
// cheap answer.
//
// A nil *Deadline admits everything at zero cost.
type Deadline struct {
	floor    time.Duration
	admitted atomic.Int64
	refused  atomic.Int64
}

// NewDeadline returns a deadline-admission element with the given
// minimum-slack floor.
func NewDeadline(floor time.Duration) *Deadline {
	return &Deadline{floor: floor}
}

// Admit rejects req when its deadline slack at now is below the floor.
// A zero deadline means "no deadline" and always passes.
func (d *Deadline) Admit(now time.Time, req *Request) error {
	if d == nil {
		return nil
	}
	if !req.Deadline.IsZero() && req.Deadline.Sub(now) < d.floor {
		d.refused.Add(1)
		return ErrDeadlineInfeasible
	}
	d.admitted.Add(1)
	return nil
}

// Name implements Element.
func (d *Deadline) Name() string { return "deadline" }

// Counters implements Element.
func (d *Deadline) Counters() []Counter {
	return []Counter{
		{Name: "admitted_total", Help: "requests with feasible deadlines", Value: d.admitted.Load()},
		{Name: "refused_total", Help: "requests refused for infeasible deadlines", Value: d.refused.Load()},
	}
}
