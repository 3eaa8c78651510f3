package dgalois

import (
	"errors"
	"fmt"
	"time"

	"mrbc/internal/gluon"
)

// FaultError is the structured failure an exchange raises when the
// transport gives up on it (a peer stalled or severed past the
// transport's deadline). It aborts the run cleanly instead of
// deadlocking the BSP barrier; consumers surface it through their
// *Checked run variants.
type FaultError struct {
	Host     int  // implicated host, -1 if none identified
	Exchange int  // exchange index that failed, -1 if the failure belongs to none
	Step     int  // idle transport steps elapsed without progress when the deadline expired
	Pending  int  // messages still undelivered or unacknowledged
	Killed   bool // the implicated host is known dead, not merely slow
	Reason   string
}

func (e *FaultError) Error() string {
	host := "unknown host"
	if e.Host >= 0 {
		host = fmt.Sprintf("host %d", e.Host)
	}
	what := "stalled on " + host
	if e.Killed {
		what = "lost " + host
	}
	if e.Exchange >= 0 {
		what += fmt.Sprintf(" in exchange %d", e.Exchange)
	}
	return fmt.Sprintf("dgalois: transport %s after %d idle steps (%d messages pending): %s",
		what, e.Step, e.Pending, e.Reason)
}

// faultErrorFrom converts a transport-layer failure (a stalled or
// severed peer on a remote backend) into the substrate's structured
// FaultError, so engine callers see one error type whatever the
// backend reported.
func faultErrorFrom(err error) *FaultError {
	var fe *FaultError
	if errors.As(err, &fe) {
		return fe
	}
	var te *gluon.TransportError
	if errors.As(err, &te) {
		return &FaultError{Host: te.Host, Exchange: te.Exchange, Step: te.Steps, Pending: te.Pending, Reason: te.Reason}
	}
	return &FaultError{Host: -1, Exchange: -1, Reason: err.Error()}
}

// abortPanic carries a FaultError up the BSP driver's stack; Capture
// converts it back into an error at the run boundary.
type abortPanic struct{ err *FaultError }

// Abort unwinds the calling BSP driver with the given structured error,
// exactly as a failed exchange would; the nearest Capture converts it
// back into the error. The pipelined batch runner uses it to take every
// batch goroutine down the same abort path once one of them failed.
func Abort(err *FaultError) {
	panic(abortPanic{err: err})
}

// Capture runs fn and converts a transport abort into its FaultError.
// Any other panic propagates unchanged.
func Capture(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if a, ok := r.(abortPanic); ok {
				err = a.err
				return
			}
			panic(r)
		}
	}()
	fn()
	return nil
}

// roundImbalance computes one round's load-imbalance sample: the
// max/mean ratio of per-host compute time over the hosts that actually
// computed this round (d > 0). Idle hosts are excluded from the mean —
// dividing by all hosts would silently inflate the ratio on rounds
// where part of the cluster legitimately has no work (e.g. a batch
// whose frontier touches few partitions), which is not what Table 1's
// load-imbalance estimate measures. Returns ok=false when no host
// computed.
func roundImbalance(durations []time.Duration) (imb float64, ok bool) {
	var max, sum time.Duration
	participants := 0
	for _, d := range durations {
		if d <= 0 {
			continue
		}
		participants++
		sum += d
		if d > max {
			max = d
		}
	}
	if participants == 0 {
		return 0, false
	}
	mean := float64(sum) / float64(participants)
	return float64(max) / mean, true
}
