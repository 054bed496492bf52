// Package server implements qcserve: a multi-tenant simulation
// service over the qcsim facade. Tenants hold sessions; an admission
// controller prices every circuit (bond-dimension estimate + codec
// footprint model, via qcsim.EstimateCircuit) BEFORE any state is
// allocated and either routes it to an engine — mps, compressed, or
// compressed+spill — or rejects it with a typed code. Admitted jobs
// wait in a bounded queue drained by a worker pool; progress streams
// to the client as server-sent events. Idle sessions are suspended to
// checkpoint files through the block-streaming Save path and resumed
// transparently, so a sleeping tenant costs disk, not RAM. A
// process-wide ledger (global capacity + per-tenant budgets) is the
// single account every reservation goes through.
//
// The package deliberately imports only the public surface (qcsim,
// qcsim/circuit) — admission uses the explicit qcsim.EstimateCircuit
// facade hook rather than reaching into internal planners, and CI
// enforces the boundary with a grep gate.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qcsim/circuit"
)

// Config configures a Server. The zero value of every field has a
// sensible default except Tenants, which must name at least one
// tenant.
type Config struct {
	// Tenants declares the allowed tenants, their memory budgets, and
	// their submission rate limits.
	Tenants []TenantConfig
	// GlobalBudget caps resident bytes across ALL tenants (0 =
	// unlimited). A job can be rejected by the global budget even when
	// its tenant has allowance left.
	GlobalBudget int64
	// DiskBudget enables the spill admission route: jobs whose dense
	// worst case exceeds the tenant's RAM allowance but fits this many
	// bytes of disk are admitted with a resident cap (0 = spill route
	// disabled).
	DiskBudget int64
	// QueueDepth bounds the job queue (default 64).
	QueueDepth int
	// Workers sizes the pool draining the queue (default 2). Workers <
	// 0 starts NO workers — a test hook that makes queue-full behavior
	// deterministic.
	Workers int
	// DataDir hosts the ckpt/ and spill/ subdirectories. "" uses a
	// fresh temp dir that is removed at Shutdown; a named dir persists
	// suspended checkpoints across server restarts.
	DataDir string
	// IdleSuspend checkpoints sessions idle longer than this (0 =
	// never). MPS-routed sessions are exempt (no checkpoint format).
	IdleSuspend time.Duration
}

// Server is one qcserve instance. Create with New, expose via
// Handler, stop with Shutdown.
type Server struct {
	cfg     Config
	ledger  *Ledger
	tenants map[string]*tenant
	metrics Metrics

	jobs     chan *job
	drainMu  sync.RWMutex
	draining bool
	wg       sync.WaitGroup

	mu       sync.Mutex
	sessions map[string]*Session

	dataDir    string
	ownDataDir bool
	ckptDir    string
	spillDir   string

	nextJob     atomic.Int64
	janitorStop chan struct{}
}

// New builds and starts a Server: worker pool running, janitor (if
// IdleSuspend is set) ticking. The caller must Shutdown it.
func New(cfg Config) (*Server, error) {
	if len(cfg.Tenants) == 0 {
		return nil, errors.New("server: no tenants configured")
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	workers := cfg.Workers
	if workers == 0 {
		workers = 2
	}
	if workers < 0 {
		workers = 0
	}

	dataDir, own := cfg.DataDir, false
	if dataDir == "" {
		d, err := os.MkdirTemp("", "qcserve-*")
		if err != nil {
			return nil, err
		}
		dataDir, own = d, true
	}
	ckptDir := filepath.Join(dataDir, "ckpt")
	spillDir := filepath.Join(dataDir, "spill")
	for _, d := range []string{ckptDir, spillDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			if own {
				os.RemoveAll(dataDir)
			}
			return nil, err
		}
	}

	srv := &Server{
		cfg:         cfg,
		ledger:      NewLedger(cfg.GlobalBudget),
		tenants:     make(map[string]*tenant, len(cfg.Tenants)),
		jobs:        make(chan *job, cfg.QueueDepth),
		sessions:    make(map[string]*Session),
		dataDir:     dataDir,
		ownDataDir:  own,
		ckptDir:     ckptDir,
		spillDir:    spillDir,
		janitorStop: make(chan struct{}),
	}
	for _, tc := range cfg.Tenants {
		if tc.Name == "" {
			if own {
				os.RemoveAll(dataDir)
			}
			return nil, errors.New("server: tenant with empty name")
		}
		if _, dup := srv.tenants[tc.Name]; dup {
			if own {
				os.RemoveAll(dataDir)
			}
			return nil, fmt.Errorf("server: duplicate tenant %q", tc.Name)
		}
		srv.tenants[tc.Name] = newTenant(tc)
		srv.ledger.AddTenant(tc.Name, tc.MemoryBudget)
	}

	for i := 0; i < workers; i++ {
		srv.wg.Add(1)
		go srv.worker()
	}
	if cfg.IdleSuspend > 0 {
		srv.wg.Add(1)
		go srv.janitor()
	}
	return srv, nil
}

// Handler returns the server's HTTP routes (see protocol.go for the
// table). Mount it on any mux or serve it directly.
func (srv *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", srv.handleCreate)
	mux.HandleFunc("GET /v1/sessions/{id}", srv.handleInspect)
	mux.HandleFunc("DELETE /v1/sessions/{id}", srv.handleDelete)
	mux.HandleFunc("POST /v1/sessions/{id}/jobs", srv.handleSubmit)
	mux.HandleFunc("POST /v1/sessions/{id}/sample", srv.handleSample)
	mux.HandleFunc("POST /v1/sessions/{id}/suspend", srv.handleSuspend)
	mux.HandleFunc("GET /metrics", srv.handleMetrics)
	mux.HandleFunc("GET /healthz", srv.handleHealthz)
	return mux
}

func writeJSON(w http.ResponseWriter, code Code, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code.HTTPStatus())
	json.NewEncoder(w).Encode(v)
}

func writeStatus(w http.ResponseWriter, code Code, err string) {
	writeJSON(w, code, StatusResponse{Code: code, Error: err})
}

// MaxRequestBytes caps a request body. The largest legitimate request
// is a submitted circuit's text: 2^20 gates at up to 16 bytes a line
// ("cp 61 60 0.7854" and its JSON-escaped newline) is 16 MiB.
const MaxRequestBytes = 16 << 20

// decodeBody decodes r's JSON body into v, reading no more than
// MaxRequestBytes of it (and the one byte that shows it is longer), or
// answers CodeErrBadRequest and reports false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxRequestBytes))
	if err == nil {
		err = json.Unmarshal(body, v)
	}
	if err == nil {
		return true
	}
	var tooLong *http.MaxBytesError
	if errors.As(err, &tooLong) {
		writeStatus(w, CodeErrBadRequest, fmt.Sprintf("request body exceeds %d bytes", MaxRequestBytes))
	} else {
		writeStatus(w, CodeErrBadRequest, "bad JSON: "+err.Error())
	}
	return false
}

func (srv *Server) isDraining() bool {
	srv.drainMu.RLock()
	defer srv.drainMu.RUnlock()
	return srv.draining
}

func (srv *Server) session(id string) *Session {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	return srv.sessions[id]
}

func (srv *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	if srv.isDraining() {
		writeStatus(w, CodeErrShuttingDown, "server is shutting down")
		return
	}
	var req CreateSessionRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if _, ok := srv.tenants[req.Tenant]; !ok {
		writeStatus(w, CodeErrUnknownTenant, fmt.Sprintf("unknown tenant %q", req.Tenant))
		return
	}
	if req.Qubits < 1 || req.Qubits > 62 {
		writeStatus(w, CodeErrBadRequest, fmt.Sprintf("qubits %d out of range 1..62", req.Qubits))
		return
	}
	s := newSession(req.Tenant, req)
	srv.mu.Lock()
	srv.sessions[s.ID] = s
	srv.mu.Unlock()
	srv.metrics.SessionsCreated.Add(1)
	writeJSON(w, CodeOK, s.info())
}

func (srv *Server) handleInspect(w http.ResponseWriter, r *http.Request) {
	s := srv.session(r.PathValue("id"))
	if s == nil {
		writeStatus(w, CodeErrNoSession, "no such session")
		return
	}
	writeJSON(w, CodeOK, s.info())
}

func (srv *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	srv.mu.Lock()
	s := srv.sessions[id]
	delete(srv.sessions, id)
	srv.mu.Unlock()
	if s == nil {
		writeStatus(w, CodeErrNoSession, "no such session")
		return
	}
	s.mu.Lock()
	s.closeSession(srv.ledger, &srv.metrics)
	s.mu.Unlock()
	writeJSON(w, CodeOK, StatusResponse{Code: CodeOK, SessionID: id})
}

func (srv *Server) handleSuspend(w http.ResponseWriter, r *http.Request) {
	s := srv.session(r.PathValue("id"))
	if s == nil {
		writeStatus(w, CodeErrNoSession, "no such session")
		return
	}
	s.mu.Lock()
	code, err := s.suspend(srv.ledger, srv.ckptDir, &srv.metrics)
	s.mu.Unlock()
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	writeJSON(w, code, StatusResponse{Code: code, Error: msg, SessionID: s.ID})
}

func (srv *Server) handleSample(w http.ResponseWriter, r *http.Request) {
	s := srv.session(r.PathValue("id"))
	if s == nil {
		writeStatus(w, CodeErrNoSession, "no such session")
		return
	}
	var req SampleRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Shots < 1 || req.Shots > 1<<20 {
		writeStatus(w, CodeErrBadRequest, fmt.Sprintf("shots %d out of range 1..%d", req.Shots, 1<<20))
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.route == nil {
		writeStatus(w, CodeErrUnsupported, "session has no admitted job yet; nothing to sample")
		return
	}
	if err := s.ensureResident(srv.ledger, srv.spillDir, &srv.metrics); err != nil {
		code := CodeErrInternal
		if errors.Is(err, ErrTenantBudget) || errors.Is(err, ErrGlobalBudget) {
			code = CodeRejectBudget
		}
		writeStatus(w, code, err.Error())
		return
	}
	outcomes, err := s.sim.Sample(req.Shots)
	if err != nil {
		writeStatus(w, CodeErrInternal, err.Error())
		return
	}
	s.touch()
	srv.metrics.SamplesDrawn.Add(int64(req.Shots))
	resp := SampleResponse{Code: CodeOK, Outcomes: make([]string, len(outcomes))}
	for i, o := range outcomes {
		resp.Outcomes[i] = strconv.FormatUint(o, 10)
	}
	writeJSON(w, CodeOK, resp)
}

func (srv *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if srv.isDraining() {
		writeStatus(w, CodeErrShuttingDown, "server is shutting down")
		return
	}
	s := srv.session(r.PathValue("id"))
	if s == nil {
		writeStatus(w, CodeErrNoSession, "no such session")
		return
	}
	srv.metrics.Submitted.Add(1)

	if !srv.tenants[s.Tenant].bucket.allow() {
		srv.metrics.RejectRate.Add(1)
		writeJSON(w, CodeRejectRate, StatusResponse{
			Code: CodeRejectRate, Error: "tenant rate limit exceeded; retry later", SessionID: s.ID,
		})
		return
	}

	var req SubmitRequest
	if !decodeBody(w, r, &req) {
		return
	}
	circ, err := circuit.Parse(strings.NewReader(req.Circuit))
	if err != nil {
		writeStatus(w, CodeErrBadCircuit, err.Error())
		return
	}
	if circ.N != s.Qubits {
		writeStatus(w, CodeErrBadCircuit,
			fmt.Sprintf("circuit is %d qubits, session register is %d", circ.N, s.Qubits))
		return
	}

	s.mu.Lock()
	adm, fresh, err := srv.admit(s, circ, req.Variants)
	s.mu.Unlock()
	if err != nil {
		code := admissionCode(err)
		srv.metrics.recordAdmission(code)
		writeStatus(w, code, err.Error())
		return
	}
	srv.metrics.recordAdmission(adm.Code)
	if !adm.Code.Admitted() {
		writeJSON(w, adm.Code, StatusResponse{Code: adm.Code, Error: adm.Reason, SessionID: s.ID, Admit: adm})
		return
	}

	j := &job{
		id:     "j" + strconv.FormatInt(srv.nextJob.Add(1), 10),
		sess:   s,
		circ:   circ,
		ctx:    r.Context(),
		events: make(chan JobEvent, 32),
	}
	if code := srv.enqueue(j); code != CodeOK {
		if fresh {
			srv.releaseAdmission(s)
		}
		srv.metrics.recordAdmission(code)
		writeJSON(w, code, StatusResponse{Code: code, Error: "job not enqueued", SessionID: s.ID, Admit: adm})
		return
	}

	// Stream the job as server-sent events: an "admitted" event first,
	// then progress, then the terminal "done"/"error".
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	send := func(ev JobEvent) {
		data, _ := json.Marshal(ev)
		fmt.Fprintf(w, "data: %s\n\n", data)
		if flusher != nil {
			flusher.Flush()
		}
	}
	send(JobEvent{Type: "admitted", JobID: j.id, Code: adm.Code, Admit: adm})
	for {
		select {
		case ev, ok := <-j.events:
			if !ok {
				return
			}
			send(ev)
		case <-r.Context().Done():
			// Client gone: the job context is cancelled with it; the
			// worker (if the job is running) stops at the next sweep
			// boundary and keeps the completed prefix.
			return
		}
	}
}

func (srv *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	srv.writeMetrics(w)
}

func (srv *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if srv.isDraining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

// janitor suspends sessions idle longer than IdleSuspend. TryLock
// skips sessions mid-job (the worker holds the lock for the whole
// run), so the janitor never stalls behind a long circuit.
func (srv *Server) janitor() {
	defer srv.wg.Done()
	tick := srv.cfg.IdleSuspend / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-srv.janitorStop:
			return
		case <-t.C:
		}
		srv.mu.Lock()
		sessions := make([]*Session, 0, len(srv.sessions))
		for _, s := range srv.sessions {
			sessions = append(sessions, s)
		}
		srv.mu.Unlock()
		for _, s := range sessions {
			if !s.mu.TryLock() {
				continue
			}
			if s.sim != nil && s.route != nil && s.route.Code != CodeAdmitMPS &&
				time.Since(s.lastUsed) >= srv.cfg.IdleSuspend {
				s.suspend(srv.ledger, srv.ckptDir, &srv.metrics)
			}
			s.mu.Unlock()
		}
	}
}

// Shutdown drains gracefully: refuse new work, let queued jobs finish,
// suspend every live compressed session to its checkpoint (MPS
// sessions just close), release all reservations, and — when the data
// dir is server-owned — remove it entirely, leaving no spill or
// checkpoint files behind. ctx bounds the queue drain; on expiry the
// remaining cleanup still runs.
func (srv *Server) Shutdown(ctx context.Context) error {
	srv.drainMu.Lock()
	already := srv.draining
	srv.draining = true
	srv.drainMu.Unlock()
	if already {
		return errors.New("server: already shut down")
	}
	close(srv.jobs)
	close(srv.janitorStop)

	done := make(chan struct{})
	go func() {
		srv.wg.Wait()
		close(done)
	}()
	var drainErr error
	select {
	case <-done:
	case <-ctx.Done():
		drainErr = fmt.Errorf("server: shutdown drain: %w", ctx.Err())
	}

	srv.mu.Lock()
	sessions := srv.sessions
	srv.sessions = make(map[string]*Session)
	srv.mu.Unlock()
	for _, s := range sessions {
		s.mu.Lock()
		if s.sim != nil {
			if code, _ := s.suspend(srv.ledger, srv.ckptDir, &srv.metrics); code == CodeOK {
				srv.metrics.ShutdownSuspended.Add(1)
			} else {
				// MPS (or failed save): close the engine and return the
				// reservation; the session state is lost, as documented.
				s.snap = s.sim.Snapshot()
				s.sim.Close()
				s.sim = nil
				srv.ledger.Release(s.Tenant, s.reserved)
				s.reserved = 0
			}
		} else if s.reserved > 0 {
			srv.ledger.Release(s.Tenant, s.reserved)
			s.reserved = 0
		}
		s.mu.Unlock()
	}

	if srv.ownDataDir {
		if err := os.RemoveAll(srv.dataDir); err != nil && drainErr == nil {
			drainErr = err
		}
	}
	return drainErr
}

// DataDir exposes where the server keeps checkpoint and spill files
// (tests assert it is cleaned up).
func (srv *Server) DataDir() string { return srv.dataDir }

// Ledger exposes the budget ledger for inspection.
func (srv *Server) Ledger() *Ledger { return srv.ledger }
