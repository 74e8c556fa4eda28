package serve

import (
	"errors"
	"time"

	"github.com/reproductions/cppe/internal/engine"
	"github.com/reproductions/cppe/internal/harness"
)

// Backoff returns the deterministic delay before retry attempt n (1-based):
// base doubled per prior attempt, saturating at cap. There is no jitter —
// retries of one job are serial, so jitter buys nothing, and a reproducible
// sequence is testable.
//
//	Backoff(100ms, 1s, 1..6) = 100ms 200ms 400ms 800ms 1s 1s
func Backoff(base, cap time.Duration, attempt int) time.Duration {
	if base <= 0 {
		return 0
	}
	d := base
	for i := 1; i < attempt; i++ {
		d *= 2
		if cap > 0 && d >= cap {
			return cap
		}
	}
	if cap > 0 && d > cap {
		return cap
	}
	return d
}

// Retryable classifies a run error: recovered panics (harness.ErrPanic) and
// wall-clock watchdog trips (engine.ErrNoProgress) are worth another attempt,
// which reruns from cycle 0 on a recycled machine — the first may be a latent
// bug in state a fresh attempt does not reach, the second is by definition
// environmental timing.
// Everything else (driver fault-service failures, integrity violations,
// malformed requests) is deterministic: retrying would reproduce it exactly,
// so the job goes terminal instead.
func Retryable(err error) bool {
	return errors.Is(err, harness.ErrPanic) || errors.Is(err, engine.ErrNoProgress)
}
