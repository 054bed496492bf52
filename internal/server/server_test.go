package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"qcsim/circuit"
)

// ---------- test client helpers ----------

type client struct {
	t    *testing.T
	base string
	hc   *http.Client
}

func newClient(t *testing.T, ts *httptest.Server) *client {
	return &client{t: t, base: ts.URL, hc: ts.Client()}
}

func (c *client) postJSON(path string, req, out any) int {
	c.t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			c.t.Fatalf("decode %s: %v", path, err)
		}
	}
	return resp.StatusCode
}

func (c *client) createSession(tenant string, qubits int, seed int64) SessionInfo {
	c.t.Helper()
	var info SessionInfo
	status := c.postJSON("/v1/sessions", CreateSessionRequest{Tenant: tenant, Qubits: qubits, Seed: seed}, &info)
	if status != http.StatusOK || info.Code != CodeOK {
		c.t.Fatalf("create session: status %d code %s err %s", status, info.Code, info.Error)
	}
	return info
}

func (c *client) inspect(id string) SessionInfo {
	c.t.Helper()
	resp, err := c.hc.Get(c.base + "/v1/sessions/" + id)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	var info SessionInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		c.t.Fatal(err)
	}
	return info
}

func circuitText(t *testing.T, circ *circuit.Circuit) string {
	t.Helper()
	var buf bytes.Buffer
	if err := circuit.Serialize(&buf, circ); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// submit posts a circuit. On admission it parses the SSE stream and
// returns the events; on rejection it returns the decoded status.
func (c *client) submit(id string, circ *circuit.Circuit) (int, []JobEvent, *StatusResponse) {
	c.t.Helper()
	return c.submitVariants(id, circ, 0)
}

// submitVariants posts a circuit declaring a RunBatch width K, so
// admission prices the K-variant worst case.
func (c *client) submitVariants(id string, circ *circuit.Circuit, k int) (int, []JobEvent, *StatusResponse) {
	c.t.Helper()
	body, _ := json.Marshal(SubmitRequest{Circuit: circuitText(c.t, circ), Variants: k})
	resp, err := c.hc.Post(c.base+"/v1/sessions/"+id+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	if !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream") {
		var st StatusResponse
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			c.t.Fatalf("decode submit status: %v", err)
		}
		return resp.StatusCode, nil, &st
	}
	var evs []JobEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			var ev JobEvent
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				c.t.Fatalf("bad SSE event %q: %v", data, err)
			}
			evs = append(evs, ev)
		}
	}
	return resp.StatusCode, evs, nil
}

// runOK submits and requires a terminal "done" event.
func (c *client) runOK(id string, circ *circuit.Circuit) []JobEvent {
	c.t.Helper()
	status, evs, st := c.submit(id, circ)
	if st != nil {
		c.t.Fatalf("submit rejected: status %d code %s %s", status, st.Code, st.Error)
	}
	if len(evs) == 0 || evs[len(evs)-1].Type != "done" {
		c.t.Fatalf("want terminal done event, got %+v", evs)
	}
	return evs
}

func (c *client) sample(id string, shots int) ([]string, *SampleResponse) {
	c.t.Helper()
	var resp SampleResponse
	c.postJSON("/v1/sessions/"+id+"/sample", SampleRequest{Shots: shots}, &resp)
	return resp.Outcomes, &resp
}

func (c *client) suspend(id string) StatusResponse {
	c.t.Helper()
	var st StatusResponse
	c.postJSON("/v1/sessions/"+id+"/suspend", struct{}{}, &st)
	return st
}

// compressedCircuit builds a deterministic, measurement-free circuit
// that the router cannot put on MPS (Toffoli has two controls), so it
// exercises the compressed engine and is suspend/resume-safe: with no
// random draws during the run, a resumed session's sampler is
// bit-identical to an uninterrupted control's.
func compressedCircuit(n int, seed int64) *circuit.Circuit {
	c := circuit.QFT(n, seed)
	c.Toffoli(0, 1, 2)
	return c
}

func shutdownOK(t *testing.T, srv *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// ---------- the E2E acceptance test ----------

// TestServerEndToEnd is the PR's acceptance test: two tenants with
// different budgets served concurrently; an over-budget submission
// rejected by admission BEFORE any state allocation; an idle session
// suspended to a checkpoint with its resident reservation dropping to
// zero and resumed bit-identically; and a graceful shutdown that
// leaves no spill or checkpoint temp files behind.
func TestServerEndToEnd(t *testing.T) {
	srv, err := New(Config{
		Tenants: []TenantConfig{
			{Name: "alice", MemoryBudget: 1 << 20},
			{Name: "bob", MemoryBudget: 64 << 10},
		},
		GlobalBudget: 4 << 20,
		Workers:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := newClient(t, ts)
	dataDir := srv.DataDir()

	// Two tenants with different budgets, running concurrently.
	alice := c.createSession("alice", 12, 42)
	bobSmall := c.createSession("bob", 8, 7)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); c.runOK(alice.SessionID, compressedCircuit(12, 99)) }()
	go func() { defer wg.Done(); c.runOK(bobSmall.SessionID, compressedCircuit(8, 99)) }()
	wg.Wait()

	// Admission prices alice's job at the dense worst case 2^(12+4).
	if got := c.inspect(alice.SessionID); got.ReservedBytes != 1<<16 || got.Backend != "compressed" {
		t.Fatalf("alice session: want 65536 reserved on compressed, got %+v", got)
	}

	// Over-budget: bob's 14-qubit job prices at 2^18 = 256 KiB, over
	// bob's 64 KiB allowance, and there is no disk budget. The typed
	// rejection must land BEFORE any state is allocated: no engine
	// build, no reservation, no backend routed.
	buildsBefore := srv.metrics.Builds.Load()
	bobBig := c.createSession("bob", 14, 7)
	status, _, st := c.submit(bobBig.SessionID, compressedCircuit(14, 99))
	if st == nil || st.Code != CodeRejectBudget || status != http.StatusForbidden {
		t.Fatalf("want REJECT_BUDGET/403, got status %d %+v", status, st)
	}
	if st.Admit == nil || st.Admit.PricedBytes != 1<<18 {
		t.Fatalf("rejection must echo the priced footprint, got %+v", st.Admit)
	}
	if got := srv.metrics.Builds.Load(); got != buildsBefore {
		t.Fatalf("rejected job built an engine: builds %d -> %d", buildsBefore, got)
	}
	if got := c.inspect(bobBig.SessionID); got.Backend != "" || got.ReservedBytes != 0 {
		t.Fatalf("rejected session must stay unrouted and unreserved, got %+v", got)
	}
	if used := srv.Ledger().Used("bob"); used != 1<<12 {
		// bob's small 8-qubit session holds its 2^12 dense worst case;
		// the rejected job added nothing.
		t.Fatalf("bob ledger: want 4096 (small session only), got %d", used)
	}

	// Suspend: alice's reservation drops to zero and a checkpoint file
	// appears under the server's ckpt dir.
	if st := c.suspend(alice.SessionID); st.Code != CodeOK {
		t.Fatalf("suspend: %+v", st)
	}
	if got := c.inspect(alice.SessionID); !got.Suspended || got.ReservedBytes != 0 {
		t.Fatalf("suspended session must hold no RAM, got %+v", got)
	}
	ckpts, _ := filepath.Glob(filepath.Join(dataDir, "ckpt", "*.ckpt"))
	if len(ckpts) != 1 {
		t.Fatalf("want one checkpoint file, got %v", ckpts)
	}

	// Resume transparently via sampling, and require bit-identity with
	// an uninterrupted control session (same tenant, seed, circuit).
	control := c.createSession("alice", 12, 42)
	c.runOK(control.SessionID, compressedCircuit(12, 99))
	wantShots, _ := c.sample(control.SessionID, 32)
	gotShots, sresp := c.sample(alice.SessionID, 32)
	if sresp.Code != CodeOK {
		t.Fatalf("sample after suspend: %+v", sresp)
	}
	if fmt.Sprint(gotShots) != fmt.Sprint(wantShots) {
		t.Fatalf("suspend/resume broke bit-identity:\n resumed %v\n control %v", gotShots, wantShots)
	}
	if got := c.inspect(alice.SessionID); got.Suspended || got.Resumes != 1 {
		t.Fatalf("session must be resumed exactly once, got %+v", got)
	}

	// Graceful shutdown: drains, suspends live sessions, and removes
	// the server-owned data dir — no leaked spill or checkpoint files.
	shutdownOK(t, srv)
	if srv.Ledger().TotalUsed() != 0 {
		t.Fatalf("ledger must be empty after shutdown, holds %d", srv.Ledger().TotalUsed())
	}
	if _, err := os.Stat(dataDir); !os.IsNotExist(err) {
		t.Fatalf("server-owned data dir %s must be removed at shutdown (err=%v)", dataDir, err)
	}
}

// ---------- routing and rejection paths ----------

func TestAdmissionRoutesMPS(t *testing.T) {
	srv, err := New(Config{Tenants: []TenantConfig{{Name: "a", MemoryBudget: 1 << 20}}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := newClient(t, ts)

	// GHZ-30 is far beyond the dense budget (2^34 bytes) but has bond
	// dimension 2: admission must route it to MPS and price only the
	// tensor bytes.
	sess := c.createSession("a", 30, 1)
	evs := c.runOK(sess.SessionID, circuit.GHZ(30))
	adm := evs[0]
	if adm.Type != "admitted" || adm.Code != CodeAdmitMPS {
		t.Fatalf("want ADMIT_MPS first event, got %+v", adm)
	}
	if adm.Admit.EstBondDim != 2 || adm.Admit.PricedBytes <= 0 || adm.Admit.PricedBytes > 1<<20 {
		t.Fatalf("mps pricing off: %+v", adm.Admit)
	}
	// MPS sessions cannot suspend: typed ERR_UNSUPPORTED.
	if st := c.suspend(sess.SessionID); st.Code != CodeErrUnsupported {
		t.Fatalf("mps suspend: want ERR_UNSUPPORTED, got %+v", st)
	}
	shutdownOK(t, srv)
}

func TestAdmissionRoutesSpill(t *testing.T) {
	srv, err := New(Config{
		Tenants:    []TenantConfig{{Name: "a", MemoryBudget: 128 << 10}},
		DiskBudget: 1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := newClient(t, ts)

	// 14 qubits dense = 256 KiB > the 128 KiB RAM allowance, but well
	// inside the disk budget: admitted on the spill tier with the
	// resident cap priced at (at most) the tenant's remaining RAM.
	sess := c.createSession("a", 14, 3)
	evs := c.runOK(sess.SessionID, compressedCircuit(14, 5))
	adm := evs[0]
	if adm.Code != CodeAdmitSpill {
		t.Fatalf("want ADMIT_SPILL, got %+v", adm)
	}
	if adm.Admit.PricedBytes <= 0 || adm.Admit.PricedBytes > 128<<10 {
		t.Fatalf("spill resident cap must fit the tenant budget, got %+v", adm.Admit)
	}
	if _, resp := c.sample(sess.SessionID, 4); resp.Code != CodeOK {
		t.Fatalf("sample on spill session: %+v", resp)
	}
	shutdownOK(t, srv)
}

// TestAdmissionPricesBatchVariants: a submission declaring a RunBatch
// width K reserves the K-variant worst case (K dense state copies),
// pins the route to the compressed backend even for MPS-friendly
// circuits, and keeps the typed CodeRejectBudget when the scaled
// ceiling does not fit.
func TestAdmissionPricesBatchVariants(t *testing.T) {
	srv, err := New(Config{Tenants: []TenantConfig{{Name: "a", MemoryBudget: 1 << 20}}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := newClient(t, ts)

	// GHZ-12 solo would route to MPS (bond dimension 2); with K=8 the
	// lockstep batch is compressed-only and prices 8·2^16 = 512 KiB.
	sess := c.createSession("a", 12, 1)
	status, evs, st := c.submitVariants(sess.SessionID, circuit.GHZ(12), 8)
	if st != nil {
		t.Fatalf("batch submit rejected: status %d %+v", status, st)
	}
	adm := evs[0]
	if adm.Type != "admitted" || adm.Code != CodeAdmitCompressed {
		t.Fatalf("want ADMIT_COMPRESSED for a batch of an MPS-friendly circuit, got %+v", adm)
	}
	if adm.Admit.PricedBytes != 8<<16 {
		t.Fatalf("batch pricing: want %d (8 dense copies), got %+v", 8<<16, adm.Admit)
	}
	if got := c.inspect(sess.SessionID); got.ReservedBytes != 8<<16 {
		t.Fatalf("batch reservation: want %d, got %+v", 8<<16, got)
	}

	// K=32 scales the same register to 2 MiB — over the 1 MiB
	// allowance, no disk budget: the typed rejection is unchanged and
	// echoes the scaled footprint. Nothing reserved, nothing routed.
	over := c.createSession("a", 12, 1)
	status, _, st = c.submitVariants(over.SessionID, circuit.GHZ(12), 32)
	if st == nil || st.Code != CodeRejectBudget || status != http.StatusForbidden {
		t.Fatalf("want REJECT_BUDGET/403 for K=32, got %d %+v", status, st)
	}
	if st.Admit == nil || st.Admit.PricedBytes != 32<<16 {
		t.Fatalf("rejection must echo the K-scaled footprint, got %+v", st.Admit)
	}
	if got := c.inspect(over.SessionID); got.Backend != "" || got.ReservedBytes != 0 {
		t.Fatalf("rejected batch session must stay unrouted, got %+v", got)
	}

	// Negative widths are a typed bad request, not an internal error.
	bad := c.createSession("a", 12, 1)
	status, _, st = c.submitVariants(bad.SessionID, circuit.GHZ(12), -2)
	if st == nil || st.Code != CodeErrBadRequest || status != http.StatusBadRequest {
		t.Fatalf("want ERR_BAD_REQUEST/400 for K=-2, got %d %+v", status, st)
	}
	shutdownOK(t, srv)
}

func TestQueueFullRejection(t *testing.T) {
	// Workers < 0 starts no workers, so a pre-filled queue stays full
	// and the rejection is deterministic.
	srv, err := New(Config{
		Tenants:    []TenantConfig{{Name: "a", MemoryBudget: 1 << 20}},
		QueueDepth: 1,
		Workers:    -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := newClient(t, ts)

	srv.jobs <- &job{id: "stuck", ctx: context.Background(), events: make(chan JobEvent, 1)}
	sess := c.createSession("a", 8, 1)
	status, _, st := c.submit(sess.SessionID, compressedCircuit(8, 1))
	if st == nil || st.Code != CodeRejectQueueFull || status != http.StatusTooManyRequests {
		t.Fatalf("want REJECT_QUEUE_FULL/429, got %d %+v", status, st)
	}
	// The failed enqueue must have undone the fresh admission.
	if used := srv.Ledger().Used("a"); used != 0 {
		t.Fatalf("failed enqueue leaked %d reserved bytes", used)
	}
	if got := c.inspect(sess.SessionID); got.Backend != "" {
		t.Fatalf("failed enqueue must clear the route, got %+v", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	srv.Shutdown(ctx)
}

func TestRateLimitRejection(t *testing.T) {
	srv, err := New(Config{
		Tenants: []TenantConfig{{Name: "a", MemoryBudget: 1 << 20, RatePerSec: 0.0001, Burst: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := newClient(t, ts)

	sess := c.createSession("a", 6, 1)
	c.runOK(sess.SessionID, compressedCircuit(6, 1)) // consumes the burst token
	status, _, st := c.submit(sess.SessionID, compressedCircuit(6, 2))
	if st == nil || st.Code != CodeRejectRate || status != http.StatusTooManyRequests {
		t.Fatalf("want REJECT_RATE/429, got %d %+v", status, st)
	}
	shutdownOK(t, srv)
}

func TestBadRequests(t *testing.T) {
	srv, err := New(Config{Tenants: []TenantConfig{{Name: "a"}}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := newClient(t, ts)

	var st StatusResponse
	if status := c.postJSON("/v1/sessions", CreateSessionRequest{Tenant: "nobody", Qubits: 4}, &st); status != http.StatusNotFound || st.Code != CodeErrUnknownTenant {
		t.Fatalf("unknown tenant: %d %+v", status, st)
	}
	if status := c.postJSON("/v1/sessions", CreateSessionRequest{Tenant: "a", Qubits: 0}, &st); status != http.StatusBadRequest || st.Code != CodeErrBadRequest {
		t.Fatalf("bad qubits: %d %+v", status, st)
	}
	sess := c.createSession("a", 4, 1)
	// Circuit width mismatching the session register is typed.
	status, _, sub := c.submit(sess.SessionID, circuit.GHZ(6))
	if sub == nil || sub.Code != CodeErrBadCircuit || status != http.StatusBadRequest {
		t.Fatalf("width mismatch: %d %+v", status, sub)
	}
	// Sampling before any admitted job is typed.
	if _, resp := c.sample(sess.SessionID, 4); resp.Code != CodeErrUnsupported {
		t.Fatalf("sample before job: %+v", resp)
	}
	// Unknown session id is typed.
	if st := c.suspend("deadbeef"); st.Code != CodeErrNoSession {
		t.Fatalf("unknown session: %+v", st)
	}
	shutdownOK(t, srv)
}

// countingReader counts the bytes a handler reads from a request body.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// TestRequestBodyCap: a body of exactly MaxRequestBytes is read and
// served; one byte more is refused with ERR_BAD_REQUEST, and a far
// longer one is refused having read no more than the cap and the byte
// that shows it is longer.
func TestRequestBodyCap(t *testing.T) {
	srv, err := New(Config{Tenants: []TenantConfig{{Name: "a"}}})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownOK(t, srv)
	h := srv.Handler()
	// post sends a create request padded with spaces to size bytes.
	post := func(size int64) (StatusResponse, int64) {
		t.Helper()
		req := `{"tenant":"a","qubits":3}`
		body := &countingReader{r: io.MultiReader(strings.NewReader(req), io.LimitReader(spaces{}, size-int64(len(req))))}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sessions", body))
		var st StatusResponse
		if err := json.NewDecoder(rec.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		if rec.Code != st.Code.HTTPStatus() {
			t.Fatalf("%d-byte body: HTTP %d for code %s", size, rec.Code, st.Code)
		}
		return st, body.n
	}
	if st, n := post(MaxRequestBytes); st.Code != CodeOK || n != MaxRequestBytes {
		t.Fatalf("a body at the cap: %+v after reading %d bytes, want OK after %d", st, n, MaxRequestBytes)
	}
	for _, size := range []int64{MaxRequestBytes + 1, 4 * MaxRequestBytes} {
		if st, n := post(size); st.Code != CodeErrBadRequest || n > MaxRequestBytes+1 {
			t.Fatalf("a %d-byte body: %+v after reading %d bytes, want %s after at most %d", size, st, n, CodeErrBadRequest, MaxRequestBytes+1)
		}
	}
}

// spaces is an endless run of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestResumeKeepsCheckpointUntilNextSuspend pins the resume-safety
// contract: the suspended checkpoint is NOT deleted when a resume's
// Load succeeds — it stays the last-known-good state until the next
// successful suspend replaces it or the session closes. The regression
// it guards against: ensureResident used to os.Remove the checkpoint
// immediately after Load, so a crash right after resume (engine lost,
// nothing re-suspended yet) destroyed the session's only copy.
func TestResumeKeepsCheckpointUntilNextSuspend(t *testing.T) {
	srv, err := New(Config{Tenants: []TenantConfig{{Name: "a", MemoryBudget: 1 << 20}}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := newClient(t, ts)

	sess := c.createSession("a", 10, 5)
	c.runOK(sess.SessionID, compressedCircuit(10, 77))
	control := c.createSession("a", 10, 5)
	c.runOK(control.SessionID, compressedCircuit(10, 77))
	wantShots, _ := c.sample(control.SessionID, 16)

	if st := c.suspend(sess.SessionID); st.Code != CodeOK {
		t.Fatalf("suspend: %+v", st)
	}
	ckpt := filepath.Join(srv.ckptDir, sess.SessionID+".ckpt")
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("checkpoint missing after suspend: %v", err)
	}

	// Transparent resume. The checkpoint must survive it.
	gotShots, resp := c.sample(sess.SessionID, 16)
	if resp.Code != CodeOK {
		t.Fatalf("sample resume: %+v", resp)
	}
	if fmt.Sprint(gotShots) != fmt.Sprint(wantShots) {
		t.Fatalf("resume broke bit-identity:\n resumed %v\n control %v", gotShots, wantShots)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("checkpoint must be kept after a successful resume, stat: %v", err)
	}
	if info := c.inspect(sess.SessionID); info.Suspended {
		t.Fatalf("resident session misreported as suspended: %+v", info)
	}

	// Simulate a crash right after resume: the resident engine is lost
	// without a suspend ever running (the failure mode the retained
	// checkpoint exists for).
	s := srv.session(sess.SessionID)
	s.mu.Lock()
	s.snap = s.sim.Snapshot()
	s.sim.Close()
	s.sim = nil
	srv.ledger.Release(s.Tenant, s.reserved)
	s.reserved = 0
	s.mu.Unlock()

	// The next sample must rebuild from the retained checkpoint,
	// bit-identical to the uninterrupted control.
	gotShots, resp = c.sample(sess.SessionID, 16)
	if resp.Code != CodeOK {
		t.Fatalf("sample after simulated crash: %+v", resp)
	}
	if fmt.Sprint(gotShots) != fmt.Sprint(wantShots) {
		t.Fatalf("recovery from retained checkpoint broke bit-identity:\n recovered %v\n control %v", gotShots, wantShots)
	}
	if info := c.inspect(sess.SessionID); info.Resumes != 2 {
		t.Fatalf("want 2 resumes (transparent + crash recovery), got %+v", info)
	}

	// A fresh suspend atomically replaces the checkpoint in place, and
	// closing the session finally deletes it.
	if st := c.suspend(sess.SessionID); st.Code != CodeOK {
		t.Fatalf("re-suspend: %+v", st)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("checkpoint missing after re-suspend: %v", err)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+sess.SessionID, nil)
	if _, err := ts.Client().Do(req); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Fatalf("closing the session must delete the checkpoint (stat err=%v)", err)
	}
	shutdownOK(t, srv)
}

func TestIdleJanitorSuspends(t *testing.T) {
	srv, err := New(Config{
		Tenants:     []TenantConfig{{Name: "a", MemoryBudget: 1 << 20}},
		IdleSuspend: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := newClient(t, ts)

	sess := c.createSession("a", 10, 9)
	c.runOK(sess.SessionID, compressedCircuit(10, 9))
	deadline := time.Now().Add(5 * time.Second)
	for {
		if info := c.inspect(sess.SessionID); info.Suspended {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("janitor never suspended the idle session")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Transparent resume still works after a janitor suspend.
	if _, resp := c.sample(sess.SessionID, 4); resp.Code != CodeOK {
		t.Fatalf("sample after janitor suspend: %+v", resp)
	}
	shutdownOK(t, srv)
}

func TestShutdownRefusesNewWork(t *testing.T) {
	srv, err := New(Config{Tenants: []TenantConfig{{Name: "a", MemoryBudget: 1 << 20}}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := newClient(t, ts)
	sess := c.createSession("a", 6, 1)
	shutdownOK(t, srv)

	var st StatusResponse
	if status := c.postJSON("/v1/sessions", CreateSessionRequest{Tenant: "a", Qubits: 4}, &st); status != http.StatusServiceUnavailable || st.Code != CodeErrShuttingDown {
		t.Fatalf("create after shutdown: %d %+v", status, st)
	}
	status, _, sub := c.submit(sess.SessionID, compressedCircuit(6, 1))
	if sub == nil || sub.Code != CodeErrShuttingDown || status != http.StatusServiceUnavailable {
		t.Fatalf("submit after shutdown: %d %+v", status, sub)
	}
	resp, err := c.hc.Get(c.base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after shutdown: %d", resp.StatusCode)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	srv, err := New(Config{Tenants: []TenantConfig{{Name: "a", MemoryBudget: 1 << 20}}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := newClient(t, ts)

	sess := c.createSession("a", 8, 1)
	c.runOK(sess.SessionID, compressedCircuit(8, 1))
	c.suspend(sess.SessionID)

	resp, err := c.hc.Get(c.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := func() ([]byte, error) {
		defer resp.Body.Close()
		b := new(bytes.Buffer)
		_, e := b.ReadFrom(resp.Body)
		return b.Bytes(), e
	}()
	text := string(body)
	for _, want := range []string{
		"qcserve_jobs_done_total 1",
		"qcserve_admissions_compressed_total 1",
		"qcserve_suspends_total 1",
		"qcserve_sessions_suspended 1",
		`qcserve_tenant_reserved_bytes{tenant="a"} 0`,
		"qcserve_queue_depth 0",
		"qcserve_codec_calls",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	shutdownOK(t, srv)
}

// ---------- unit tests: ledger, bucket, codes ----------

func TestLedger(t *testing.T) {
	l := NewLedger(1000)
	l.AddTenant("a", 600)
	l.AddTenant("b", 600)
	if err := l.Reserve("a", 500); err != nil {
		t.Fatal(err)
	}
	if err := l.Reserve("a", 200); err == nil || !strings.Contains(err.Error(), "tenant budget") {
		t.Fatalf("want tenant refusal, got %v", err)
	}
	if err := l.Reserve("b", 600); err == nil || !strings.Contains(err.Error(), "global budget") {
		t.Fatalf("want global refusal, got %v", err)
	}
	if err := l.Reserve("b", 500); err != nil {
		t.Fatal(err)
	}
	if got := l.TotalUsed(); got != 1000 {
		t.Fatalf("total used: want 1000, got %d", got)
	}
	if got := l.Remaining("a"); got != 0 {
		t.Fatalf("remaining a: want 0, got %d", got)
	}
	l.Release("a", 500)
	if got, want := l.Remaining("a"), int64(500); got != want {
		// tenant headroom 600 is clipped by global headroom 500.
		t.Fatalf("remaining a after release: want %d, got %d", want, got)
	}
	if err := l.Reserve("ghost", 1); err == nil {
		t.Fatal("unknown tenant must be refused")
	}
	// Over-release clamps, never goes negative.
	l.Release("b", 9999)
	if got := l.TotalUsed(); got != 0 {
		t.Fatalf("total used after clamped release: want 0, got %d", got)
	}
}

func TestTokenBucket(t *testing.T) {
	now := time.Unix(0, 0)
	tb := newTokenBucket(1, 2) // 1 token/s, burst 2
	tb.now = func() time.Time { return now }
	if !tb.allow() || !tb.allow() {
		t.Fatal("burst of 2 must allow two submissions")
	}
	if tb.allow() {
		t.Fatal("third immediate submission must be refused")
	}
	now = now.Add(1500 * time.Millisecond)
	if !tb.allow() {
		t.Fatal("refill after 1.5s must allow one")
	}
	if tb.allow() {
		t.Fatal("half a token is not a token")
	}
	var nilBucket *tokenBucket
	if !nilBucket.allow() {
		t.Fatal("nil bucket (unlimited) must allow")
	}
}

// codeStatus is the server's code table: every Code a response may
// carry, with the HTTP status it rides on.
var codeStatus = map[Code]int{
	CodeOK:               200,
	CodeAdmitCompressed:  200,
	CodeAdmitMPS:         200,
	CodeAdmitSpill:       200,
	CodeRejectBudget:     403,
	CodeRejectRate:       429,
	CodeRejectQueueFull:  429,
	CodeErrUnknownTenant: 404,
	CodeErrNoSession:     404,
	CodeErrBadRequest:    400,
	CodeErrBadCircuit:    400,
	CodeErrUnsupported:   422,
	CodeErrCancelled:     409,
	CodeErrShuttingDown:  503,
	CodeErrInternal:      500,
}

func TestCodeHTTPStatus(t *testing.T) {
	for code, want := range codeStatus {
		if got := code.HTTPStatus(); got != want {
			t.Errorf("%s: want %d, got %d", code, want, got)
		}
	}
	if CodeRejectBudget.Admitted() || !CodeAdmitSpill.Admitted() {
		t.Error("Admitted() misclassifies")
	}
}
