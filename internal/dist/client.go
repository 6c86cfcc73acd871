package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"aqppp/internal/exec"
)

// Config tunes the coordinator's replica client.
type Config struct {
	// Timeout bounds each attempt against one replica (0 means no
	// per-attempt bound beyond the request's own deadline).
	Timeout time.Duration
	// Retries is how many additional attempts follow a retryable
	// failure (transport error, per-attempt timeout, replica 5xx).
	// Taxonomy rejections and sheds never retry.
	Retries int
	// Backoff is the sleep before the first retry; it doubles per
	// retry and a retry never sleeps past the request's deadline.
	Backoff time.Duration
	// Client is the HTTP client (nil uses a default with sane
	// timeouts).
	Client *http.Client
}

// requestIDKey is the context key of the client request's id.
type requestIDKey struct{}

// WithRequestID returns a context under which every partial request
// carries id as X-Request-Id — first attempt and retry alike — so a
// replica's log line and error body name the coordinator request they
// served and one id follows a query across processes.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

// maxPartialBody bounds a partial response read (defensive; real
// responses are a few KB plus group rows).
const maxPartialBody = 16 << 20

func (c *Coordinator) httpClient() *http.Client {
	if c.cfg.Client != nil {
		return c.cfg.Client
	}
	return http.DefaultClient
}

// opForMode maps a partial mode onto the exec error-taxonomy op.
func opForMode(mode string) string {
	switch mode {
	case ModeExact:
		return "exact"
	case ModeBootstrap:
		return "bootstrap"
	default:
		return "query"
	}
}

// kindFromString maps a replica's wire kind back onto the taxonomy.
func kindFromString(s string) (exec.Kind, bool) {
	switch s {
	case "parse":
		return exec.Parse, true
	case "unknown-table", "unknown-prepared":
		return exec.UnknownTable, true
	case "unsupported":
		return exec.Unsupported, true
	case "canceled":
		return exec.Canceled, true
	case "budget-exceeded":
		return exec.BudgetExceeded, true
	case "unavailable":
		return exec.Unavailable, true
	default:
		return exec.Internal, false
	}
}

// postPartial sends one partial request to a replica with per-attempt
// timeouts and bounded exponential backoff. Retries honor the request's
// remaining deadline: a retry whose backoff would sleep past it is
// abandoned and the last failure returned — the coordinator never burns
// budget the caller cannot use.
func (c *Coordinator) postPartial(ctx context.Context, r *replica, preq *PartialRequest) (*PartialResponse, error) {
	op := opForMode(preq.Mode)
	body, err := json.Marshal(preq)
	if err != nil {
		return nil, &exec.Error{Kind: exec.Internal, Op: op, Err: err}
	}
	backoff := c.cfg.Backoff
	if backoff <= 0 {
		backoff = 25 * time.Millisecond
	}
	attempts := 0
	var lastErr error
	for try := 0; try <= c.cfg.Retries; try++ {
		if try > 0 {
			if dl, ok := ctx.Deadline(); ok && time.Until(dl) <= backoff {
				break // the retry could not finish inside the deadline
			}
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(backoff):
			}
			backoff *= 2
			r.retries.Add(1)
		}
		attempts++
		resp, retryable, err := c.attempt(ctx, r, op, body)
		if err == nil {
			if err := shapeError(r, preq, resp); err != nil {
				return nil, &exec.Error{Kind: exec.Internal, Op: op, Err: err}
			}
			r.healthy.Store(true)
			return resp, nil
		}
		lastErr = err
		if !retryable {
			var re *ReplicaError
			if errors.As(err, &re) {
				r.failures.Add(1)
				r.healthy.Store(false)
			}
			return nil, err
		}
	}
	r.failures.Add(1)
	r.healthy.Store(false)
	var re *ReplicaError
	if errors.As(lastErr, &re) {
		re.Attempts = attempts
		return nil, lastErr
	}
	return nil, lastErr
}

// shapeError reports why a replica's well-formed response does not
// answer preq: it names another mode or shard than was asked, an exact
// response's payload does not fit the query (a scalar query with no
// Scalar, a GROUP BY query with one), an exact partial counts a
// negative number of rows, or a GROUP BY response names one key twice.
// Such a partial is refused, not merged: a missing Scalar would decode
// as a zero partial and the stratum's rows would silently count as 0,
// and a repeated key would be merged twice into its group.
func shapeError(r *replica, preq *PartialRequest, pr *PartialResponse) error {
	grouped := len(preq.Query.GroupBy) > 0
	switch {
	case pr.Mode != preq.Mode:
		return fmt.Errorf("replica %s answered mode %q for a %q partial", r.url, pr.Mode, preq.Mode)
	case pr.Shard != r.ident.Index:
		return fmt.Errorf("replica %s answered as shard %d, not %d", r.url, pr.Shard, r.ident.Index)
	case preq.Mode == ModeExact && !grouped && pr.Scalar == nil:
		return fmt.Errorf("replica %s returned no scalar for a scalar exact partial", r.url)
	case preq.Mode == ModeExact && grouped && pr.Scalar != nil:
		return fmt.Errorf("replica %s returned a scalar for a GROUP BY exact partial", r.url)
	case pr.Scalar != nil && pr.Scalar.N < 0:
		return fmt.Errorf("replica %s returned a scalar partial over %d rows", r.url, pr.Scalar.N)
	}
	seen := make(map[string]bool, len(pr.Groups)+len(pr.AnswerGroups))
	repeated := func(key string) error {
		if seen[key] {
			return fmt.Errorf("replica %s returned group %q twice", r.url, key)
		}
		seen[key] = true
		return nil
	}
	for _, g := range pr.Groups {
		if g.Partial.N < 0 {
			return fmt.Errorf("replica %s returned group %q over %d rows", r.url, g.Key, g.Partial.N)
		}
		if err := repeated(g.Key); err != nil {
			return err
		}
	}
	clear(seen)
	for _, g := range pr.AnswerGroups {
		if err := repeated(g.Key); err != nil {
			return err
		}
	}
	return nil
}

// attempt is one POST /v1/partial round trip. The bool reports whether
// the failure is retryable.
func (c *Coordinator) attempt(ctx context.Context, r *replica, op string, body []byte) (*PartialResponse, bool, error) {
	actx := ctx
	cancel := context.CancelFunc(func() {})
	if c.cfg.Timeout > 0 {
		actx, cancel = context.WithTimeout(ctx, c.cfg.Timeout)
	}
	defer cancel()
	r.requests.Add(1)
	req, err := http.NewRequestWithContext(actx, http.MethodPost, r.url+"/v1/partial", bytes.NewReader(body))
	if err != nil {
		return nil, false, &exec.Error{Kind: exec.Internal, Op: op, Err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	if id, ok := ctx.Value(requestIDKey{}).(string); ok {
		req.Header.Set("X-Request-Id", id)
	}
	status, header, data, err := roundTrip(c.httpClient(), req, maxPartialBody)
	if err != nil {
		if ctx.Err() != nil {
			// The caller's deadline or cancellation, not the replica's
			// fault: surface the raw context error so exec classifies
			// it as Canceled/BudgetExceeded.
			return nil, false, ctx.Err()
		}
		return nil, true, unavailable(op, &ReplicaError{Replica: r.url, Shard: r.ident.Index, Attempts: 1, Err: err})
	}
	if status == http.StatusOK {
		var pr PartialResponse
		if err := json.Unmarshal(data, &pr); err != nil {
			return nil, true, unavailable(op, &ReplicaError{Replica: r.url, Shard: r.ident.Index, Attempts: 1,
				Err: fmt.Errorf("malformed partial response: %w", err)})
		}
		if pr.V != WireVersion {
			return nil, false, &exec.Error{Kind: exec.Internal, Op: op,
				Err: fmt.Errorf("replica %s speaks wire v%d, coordinator v%d", r.url, pr.V, WireVersion)}
		}
		return &pr, false, nil
	}
	var eb wireErrorBody
	_ = json.Unmarshal(data, &eb)
	if status == http.StatusTooManyRequests {
		// The replica shed the request (admission gate or quota). Not
		// retryable within this query — the backoff hint is for the
		// client — and the hint must survive to the coordinator's own
		// response instead of flattening into a 500.
		r.shed.Add(1)
		ra := time.Duration(eb.Error.RetryAfterMS) * time.Millisecond
		if ra <= 0 {
			ra = retryAfterHeader(header)
		}
		return nil, false, unavailable(op, &ReplicaError{
			Replica: r.url, Shard: r.ident.Index, Attempts: 1, RetryAfter: ra,
			Err: fmt.Errorf("replica shed the request: %s", eb.Error.Message),
		})
	}
	if kind, ok := kindFromString(eb.Error.Kind); ok {
		cause := errors.New(eb.Error.Message)
		switch kind {
		case exec.Parse, exec.UnknownTable, exec.Unsupported:
			// The request itself is bad; every replica would reject it.
			return nil, false, &exec.Error{Kind: kind, Op: op, Err: cause}
		default:
			// The replica ran out of its share of the deadline or
			// unwound — the stratum is lost for this query, and so is
			// the query. Retrying cannot help inside the same deadline.
			return nil, false, unavailable(op, &ReplicaError{Replica: r.url, Shard: r.ident.Index, Attempts: 1, Err: cause})
		}
	}
	// 5xx and anything unrecognized: retryable replica failure.
	return nil, true, unavailable(op, &ReplicaError{
		Replica: r.url, Shard: r.ident.Index, Attempts: 1,
		Err: fmt.Errorf("replica status %d: %s", status, eb.Error.Message),
	})
}

// roundTrip sends req and returns the response's status, headers and at
// most limit bytes of its body; err is the transport's or the body
// read's. Every outbound request in this package goes through it, so no
// caller ever holds a *http.Response: the close below is the module's
// only one, and there is no second place to forget it.
func roundTrip(client *http.Client, req *http.Request, limit int64) (status int, header http.Header, body []byte, err error) {
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer func() { _ = resp.Body.Close() }()
	body, err = io.ReadAll(io.LimitReader(resp.Body, limit))
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, resp.Header, body, nil
}

// retryAfterHeader parses a whole-seconds Retry-After header.
func retryAfterHeader(h http.Header) time.Duration {
	var secs int64
	if _, err := fmt.Sscanf(h.Get("Retry-After"), "%d", &secs); err == nil && secs > 0 {
		return time.Duration(secs) * time.Second
	}
	return 0
}

// timeoutMSFrom renders a context deadline as the wire timeout hint.
func timeoutMSFrom(ctx context.Context) int64 {
	if dl, ok := ctx.Deadline(); ok {
		ms := time.Until(dl).Milliseconds()
		if ms < 1 {
			ms = 1
		}
		return ms
	}
	return 0
}
