package server

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"aqppp"
	"aqppp/internal/dist"
)

// Config tunes the server's traffic management. The zero value gets
// sensible defaults from New.
type Config struct {
	// MaxConcurrent bounds queries executing simultaneously (default
	// GOMAXPROCS): past the point where every core runs a block kernel,
	// extra concurrency only adds queueing inside the scheduler.
	MaxConcurrent int
	// MaxQueue bounds requests waiting for a slot (default
	// 4×MaxConcurrent). Requests beyond it are shed with 429.
	MaxQueue int
	// DefaultTimeout applies to requests that carry no timeout_ms
	// (0 = unlimited).
	DefaultTimeout time.Duration
	// MaxTimeout caps every request's timeout (0 = no cap); a client
	// asking for more is clamped, not rejected.
	MaxTimeout time.Duration
	// DrainPause is how long Shutdown keeps accepting after flipping
	// /readyz to 503, so load balancers observe not-ready before the
	// listener closes (default 0).
	DrainPause time.Duration
	// MaxResamples and MaxScratchBytes are folded into every request's
	// Budget (0 = unlimited), bounding what one bootstrap request can
	// cost: MaxScratchBytes against the worst-case scratch of the samples
	// it resamples in this process (core.BootstrapScratchBytes: 8 bytes
	// per row plus 56 per stratum), on /v1/approx and on a replica's
	// /v1/partial alike.
	MaxResamples    int
	MaxScratchBytes int64
	// MaxBodyBytes bounds request bodies (default 1 MiB).
	MaxBodyBytes int64
	// CacheMaxBytes bounds the response cache's total entry size
	// (default 32 MiB; negative disables caching entirely).
	CacheMaxBytes int64
	// CacheTTL bounds a cached response's age (default 60s; negative
	// disables age-based expiry — entries still churn by LRU).
	CacheTTL time.Duration
	// QuotaRate enables per-client fairness: each client sustains this
	// many cache-missing requests per second (0 disables quotas).
	QuotaRate float64
	// QuotaBurst is the per-client token-bucket depth (default
	// max(1, ceil(2×QuotaRate))).
	QuotaBurst int
	// QuotaMaxClients bounds tracked client buckets (default 4096; the
	// least-recently-seen client is evicted past it).
	QuotaMaxClients int
	// AccessLog receives one line per request (nil = no access log).
	AccessLog io.Writer
	// Replica, when set, marks this server as one shard replica of a
	// distributed fleet: it serves the internal GET /v1/shard handshake
	// and POST /v1/partial endpoints over the named slice table.
	Replica *ReplicaRole
	// Coordinator, when set, is the fleet this server fronts; /statusz
	// and /metrics render its topology and per-replica counters. The
	// query path needs no flag — distributed tables route through the
	// DB like any other.
	Coordinator *dist.Coordinator
	// QuotaLease, when set, replaces the local per-client quota with
	// leases from the fleet's quota authority, so N processes drain one
	// logical bucket (see internal/dist.QuotaLease).
	QuotaLease *dist.QuotaLease
}

// Server wraps one *aqppp.DB behind the HTTP API. Create with New,
// start with Serve, stop with Shutdown.
type Server struct {
	db    *aqppp.DB
	cfg   Config
	gate  *Gate
	mux   *http.ServeMux
	hs    *http.Server
	met   *metrics
	cache *Cache // nil when caching is disabled
	quota *Quota // nil when quotas are disabled

	ready    atomic.Bool
	draining atomic.Bool
	start    time.Time

	reqSeq   atomic.Uint64
	idPrefix string

	logMu sync.Mutex

	prepMu   sync.Mutex
	prepared map[string]*aqppp.Prepared
	// prepEpoch counts (re)registrations per handle name, bumped on
	// both RegisterPrepared and dropPrepared. The response cache folds
	// the epoch into /v1/approx keys, so deleting a handle and building
	// a new one under the same name can never serve the old handle's
	// cached answers.
	prepEpoch map[string]uint64

	// baseCancel hard-cancels every in-flight request's context when
	// the drain deadline passes; set by Serve.
	cancelMu   sync.Mutex
	baseCancel context.CancelFunc

	// hookGated, when non-nil, runs inside the admission gate before
	// the query executes. It is a test seam (set before Serve, never
	// mutated after) for making gated sections observably slow.
	hookGated func(ctx context.Context)
}

// New builds a Server over db. The DB's tables and preparations can be
// registered before or after; the server also grows prepared handles
// through POST /v1/prepare.
func New(db *aqppp.DB, cfg Config) *Server {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 4 * cfg.MaxConcurrent
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.CacheMaxBytes == 0 {
		cfg.CacheMaxBytes = 32 << 20
	}
	if cfg.CacheTTL == 0 {
		cfg.CacheTTL = time.Minute
	}
	if cfg.QuotaMaxClients <= 0 {
		cfg.QuotaMaxClients = 4096
	}
	if cfg.QuotaBurst <= 0 {
		cfg.QuotaBurst = int(2 * cfg.QuotaRate)
		if cfg.QuotaBurst < 1 {
			cfg.QuotaBurst = 1
		}
	}
	s := &Server{
		db:        db,
		cfg:       cfg,
		gate:      NewGate(cfg.MaxConcurrent, cfg.MaxQueue),
		mux:       http.NewServeMux(),
		met:       newMetrics(),
		start:     time.Now(),
		prepared:  make(map[string]*aqppp.Prepared),
		prepEpoch: make(map[string]uint64),
	}
	if cfg.CacheMaxBytes > 0 {
		s.cache = NewCache(cfg.CacheMaxBytes, cfg.CacheTTL)
	}
	if cfg.QuotaRate > 0 {
		s.quota = NewQuota(cfg.QuotaRate, cfg.QuotaBurst, cfg.QuotaMaxClients)
	}
	s.idPrefix = fmt.Sprintf("%08x", uint32(s.start.UnixNano()))
	s.routes()
	s.hs = &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 10 * time.Second,
	}
	return s
}

// Handler exposes the routed handler (tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// RegisterPrepared names an already-built preparation so /v1/approx can
// use it (the cmd binary pre-builds one at startup). It fails if the
// name is taken.
func (s *Server) RegisterPrepared(name string, p *aqppp.Prepared) error {
	s.prepMu.Lock()
	defer s.prepMu.Unlock()
	if _, ok := s.prepared[name]; ok {
		return fmt.Errorf("server: prepared handle %q already exists", name)
	}
	s.prepared[name] = p
	s.prepEpoch[name]++
	return nil
}

// lookupPrepared resolves a handle name to the handle and its current
// epoch (see prepEpoch).
func (s *Server) lookupPrepared(name string) (*aqppp.Prepared, uint64, bool) {
	s.prepMu.Lock()
	defer s.prepMu.Unlock()
	p, ok := s.prepared[name]
	return p, s.prepEpoch[name], ok
}

// dropPrepared forgets a handle, reporting whether it existed.
func (s *Server) dropPrepared(name string) bool {
	s.prepMu.Lock()
	defer s.prepMu.Unlock()
	_, ok := s.prepared[name]
	if ok {
		delete(s.prepared, name)
		s.prepEpoch[name]++
	}
	return ok
}

// preparedNames lists handles sorted by name.
func (s *Server) preparedNames() []string {
	s.prepMu.Lock()
	defer s.prepMu.Unlock()
	names := make([]string, 0, len(s.prepared))
	for n := range s.prepared {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Serve accepts connections on l until Shutdown. Every request context
// derives from a server-lifetime base context, so the drain deadline
// can hard-cancel stragglers straight into the engine's per-block
// cancel checks. A clean shutdown returns nil.
func (s *Server) Serve(l net.Listener) error {
	base, cancel := context.WithCancel(context.Background())
	s.cancelMu.Lock()
	s.baseCancel = cancel
	s.cancelMu.Unlock()
	s.hs.BaseContext = func(net.Listener) context.Context { return base }
	s.ready.Store(true)
	err := s.hs.Serve(l)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// Shutdown drains the server: /readyz flips to 503 immediately, the
// listener keeps accepting for Config.DrainPause (so load balancers
// notice), then stops; in-flight queries run to completion until ctx's
// deadline, after which every remaining request context is
// hard-canceled (unwinding engine scans within one zone block) and the
// connections are closed. Returns nil when every request finished
// inside the deadline.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.ready.Store(false)
	if s.cfg.DrainPause > 0 {
		t := time.NewTimer(s.cfg.DrainPause)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
		}
	}
	s.hs.SetKeepAlivesEnabled(false)
	err := s.hs.Shutdown(ctx)
	if err == nil {
		return nil
	}
	// Drain deadline passed with requests still in flight: cancel
	// their contexts and force the connections closed.
	s.cancelMu.Lock()
	cancel := s.baseCancel
	s.cancelMu.Unlock()
	if cancel != nil {
		cancel()
	}
	if cerr := s.hs.Close(); cerr != nil {
		return cerr
	}
	return err
}

// Ready reports whether the server accepts new work (false once
// draining).
func (s *Server) Ready() bool { return s.ready.Load() }

// Gate exposes the admission controller (statusz and tests).
func (s *Server) Gate() *Gate { return s.gate }

// nextRequestID mints a process-unique request ID: a startup-time
// prefix plus a sequence number. It appears in every response body,
// error body, and access-log line, so one ID ties a client-side failure
// to the server-side record.
func (s *Server) nextRequestID() string {
	return fmt.Sprintf("%s-%06d", s.idPrefix, s.reqSeq.Add(1))
}

// logAccess writes one access-log line: timestamp, request ID, method,
// path, status, and wall time, then parent=<id> when the caller sent
// its own request's ID.
func (s *Server) logAccess(ri *reqInfo, method, path string, status int, d time.Duration) {
	if s.cfg.AccessLog == nil {
		return
	}
	s.logMu.Lock()
	defer s.logMu.Unlock()
	// An access-log write failing must never fail the request; the
	// error is deliberately dropped.
	parent := ""
	if ri.parent != "" {
		parent = " parent=" + ri.parent
	}
	_, _ = fmt.Fprintf(s.cfg.AccessLog, "%s %s %s %s %d %.3fms%s\n",
		time.Now().UTC().Format(time.RFC3339Nano), ri.id, method, path, status, toMS(d), parent)
}
