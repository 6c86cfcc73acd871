package dist

import (
	"fmt"
	"time"

	"aqppp/internal/exec"
)

// ReplicaError describes a replica that could not serve a partial
// request: unreachable, timed out across every attempt, or shedding
// load. It is always wrapped in an exec.Error of kind Unavailable, so
// errors.As recovers it and exec.KindOf classifies it.
type ReplicaError struct {
	// Replica is the peer's base URL; Shard its index in the layout.
	Replica string
	Shard   int
	// Attempts is how many tries the client made before giving up.
	Attempts int
	// RetryAfter carries a shedding replica's backoff hint (zero
	// otherwise); the serving layer propagates it to the client as a
	// Retry-After header instead of swallowing it as a plain 500.
	RetryAfter time.Duration
	// Err is the final attempt's underlying failure.
	Err error
}

// Error implements error.
func (e *ReplicaError) Error() string {
	return fmt.Sprintf("replica %s (shard %d) unavailable after %d attempt(s): %v",
		e.Replica, e.Shard, e.Attempts, e.Err)
}

// Unwrap exposes the cause to errors.Is / errors.As.
func (e *ReplicaError) Unwrap() error { return e.Err }

// RetryAfterHint reports the shedding replica's backoff hint. The
// serving layer discovers it through this interface method (it cannot
// name ReplicaError without importing the network stack).
func (e *ReplicaError) RetryAfterHint() time.Duration { return e.RetryAfter }

// unavailable wraps a replica failure into the taxonomy.
func unavailable(op string, re *ReplicaError) error {
	return &exec.Error{Kind: exec.Unavailable, Op: op, Err: re}
}
