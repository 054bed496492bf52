package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"qcsim"
	"qcsim/circuit"
	"qcsim/internal/quantum"
	"qcsim/internal/server"
)

// serveMix is the tenant's view: an in-process qcserve behind a real
// HTTP listener, driven by a closed loop — each of `clients` callers
// sends its next request only when the previous one has been answered.
type serveMix struct {
	w       *workload
	seed    int64
	qubits  int
	clients int
	perKind int // jobs of each circuit kind per client per round
	shots   int
	smoke   bool
	// bondDim is the sessions' MPS bond cap; 0 is the server default.
	// At smoke scale every circuit would fit the default cap and be
	// routed to the MPS engine, which has no suspend; a cap of 2 keeps
	// the full-scale routing (GHZ on MPS, the rest compressed).
	bondDim int
	kinds   []*jobKind
}

// jobKind is one of the three circuits tenants submit. Every job of a
// kind uses the same session seed, so the server must answer every one
// of them with the same draws.
type jobKind struct {
	name string
	text string // the .qc text as submitted
	seed int64  // session seed
	mps  bool   // admitted on the MPS route: no checkpoint, so no suspend step
	// From a local twin of the session: the hash of its first `shots`
	// draws, its Eq. 11 ledger, and its fidelity against the oracle.
	wantHash         uint64
	ledger, measured float64
}

func newServeMix(w *workload, seed int64, smoke bool) (*serveMix, error) {
	s := &serveMix{w: w, seed: seed, qubits: w.full, clients: 2, perKind: 4, shots: 1024, smoke: smoke}
	if smoke {
		s.qubits, s.perKind, s.shots, s.bondDim = w.smoke, 1, 64, 2
	}
	texts, err := s.generate()
	if err != nil {
		return nil, err
	}
	for i, name := range kindNames {
		s.kinds = append(s.kinds, &jobKind{name: name, text: texts[i], seed: subSeed(seed, 10+i)})
	}
	return s, nil
}

var kindNames = []string{"ghz", "qft", "qaoa"}

// generate builds the seeded circuits tenants submit, as .qc text, in
// kindNames order. It is part of every round's set-up, as generating
// the inputs is part of an engine rep's.
func (s *serveMix) generate() ([]string, error) {
	g := geometry{qubits: s.qubits, ranks: 1}
	circuits := []*circuit.Circuit{circuit.GHZ(s.qubits), qftCircuit(g, s.seed), qaoaCircuit(g, 1, s.seed)}
	texts := make([]string, len(circuits))
	for i, c := range circuits {
		var buf bytes.Buffer
		if err := circuit.Serialize(&buf, c); err != nil {
			return nil, fmt.Errorf("perf: serializing %s: %w", kindNames[i], err)
		}
		texts[i] = buf.String()
	}
	return texts, nil
}

// twins works out, without the server, what the server must answer: a
// local simulator configured the way the session configures its own
// runs the same text and draws the same shots. Its state is compared
// with the dense oracle, which is the fidelity the tenant gets.
func (s *serveMix) twins(ctx context.Context, chk *checker) error {
	for _, k := range s.kinds {
		// The text form rounds angles, so both sides start from the
		// parsed text, as the server does.
		c, err := circuit.Parse(strings.NewReader(k.text))
		if err != nil {
			return fmt.Errorf("perf: parsing %s back: %w", k.name, err)
		}
		opts := []qcsim.Option{qcsim.WithSeed(k.seed)}
		if s.bondDim > 0 {
			opts = append(opts, qcsim.WithBondDim(s.bondDim))
		}
		est, err := qcsim.EstimateCircuit(s.qubits, c, opts...)
		if err != nil {
			return err
		}
		k.mps = est.Backend == qcsim.BackendMPS
		opts = append(opts, qcsim.WithBackend(est.Backend))
		if !k.mps {
			opts = append(opts, qcsim.WithMemoryBudget(int64(est.UncompressedBytes)))
		}
		twin, err := qcsim.New(s.qubits, opts...)
		if err != nil {
			return err
		}
		if _, err := twin.Run(ctx, c); err != nil {
			twin.Close()
			return err
		}
		draws, err := twin.Sample(s.shots)
		if err != nil {
			twin.Close()
			return err
		}
		k.wantHash, k.ledger = hashOutcomes(draws), twin.FidelityLowerBound()
		full, err := twin.FullState()
		twin.Close()
		if err != nil {
			return err
		}
		k.measured = quantum.FidelityVec(full, denseOracle(c).Amps)
		if chk.sabotage {
			k.measured -= 0.5
		}
		chk.op(k.measured >= k.ledger-1e-9, "%s: %s state has fidelity %.12f against the oracle, below the ledger's %.12f", s.w.name, k.name, k.measured, k.ledger)
	}
	return nil
}

// jobTimes are the client-side timestamps of one job.
type jobTimes struct {
	total, admit, queueRun, sample, suspend, resume time.Duration
	footprint                                       int64
	fidelity                                        float64
}

// roundOut is one round: how long the server took to start, how long
// the clients took to finish, and the times of every job that
// succeeded.
type roundOut struct {
	setup, wall time.Duration
	jobs        []jobTimes
	rejects     float64
}

type serveClient struct {
	base string
	hc   *http.Client
}

// call posts (or sends method) JSON and decodes the JSON answer.
func (c *serveClient) call(method, path string, req, out any) error {
	var body io.Reader
	if req != nil {
		b, err := json.Marshal(req)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	hr, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return err
	}
	hr.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(hr)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("%s %s: status %d: %w", method, path, resp.StatusCode, err)
	}
	return nil
}

var errNotOK = errors.New("server answered with a code other than OK")

// job walks one session through its life and returns the timestamps.
func (c *serveClient) job(s *serveMix, k *jobKind, tenant string) (jobTimes, error) {
	var jt jobTimes
	var info server.SessionInfo
	if err := c.call("POST", "/v1/sessions", server.CreateSessionRequest{Tenant: tenant, Qubits: s.qubits, Seed: k.seed, BondDim: s.bondDim}, &info); err != nil {
		return jt, err
	}
	if info.Code != server.CodeOK {
		return jt, fmt.Errorf("create: %w: %s %s", errNotOK, info.Code, info.Error)
	}
	path := "/v1/sessions/" + info.SessionID
	deleted := false
	defer func() {
		if !deleted { // a step failed; free the session anyway, best effort
			_ = c.call("DELETE", path, nil, &server.StatusResponse{})
		}
	}()

	// Submit and follow the event stream to its terminal event.
	body, err := json.Marshal(server.SubmitRequest{Circuit: k.text})
	if err != nil {
		return jt, err
	}
	t0 := time.Now()
	resp, err := c.hc.Post(c.base+path+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return jt, err
	}
	defer resp.Body.Close()
	if !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream") {
		var st server.StatusResponse
		_ = json.NewDecoder(resp.Body).Decode(&st) // an undecodable refusal is still a refusal
		return jt, fmt.Errorf("submit: %w: %s %s", errNotOK, st.Code, st.Error)
	}
	var last server.JobEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		if err := json.Unmarshal([]byte(data), &last); err != nil {
			return jt, fmt.Errorf("submit: bad event %q: %w", data, err)
		}
		if last.Type == "admitted" {
			jt.admit = time.Since(t0)
		}
	}
	jt.total = time.Since(t0)
	jt.queueRun = jt.total - jt.admit
	if last.Type != "done" || last.Res == nil {
		return jt, fmt.Errorf("submit: stream ended in %q (%s %s), not done", last.Type, last.Code, last.Error)
	}
	jt.footprint, jt.fidelity = last.Res.Footprint, last.Res.Fidelity
	if jt.fidelity != k.ledger {
		return jt, fmt.Errorf("submit: %s job reports fidelity bound %v, its local twin %v", k.name, jt.fidelity, k.ledger)
	}

	sample := func() (time.Duration, error) {
		var sr server.SampleResponse
		t := time.Now()
		if err := c.call("POST", path+"/sample", server.SampleRequest{Shots: s.shots}, &sr); err != nil {
			return 0, err
		}
		d := time.Since(t)
		if sr.Code != server.CodeOK || len(sr.Outcomes) != s.shots {
			return d, fmt.Errorf("sample: %w: %s %s (%d outcomes)", errNotOK, sr.Code, sr.Error, len(sr.Outcomes))
		}
		draws := make([]uint64, len(sr.Outcomes))
		for i, o := range sr.Outcomes {
			v, err := strconv.ParseUint(o, 10, 64)
			if err != nil {
				return d, err
			}
			draws[i] = v
		}
		if hashOutcomes(draws) != k.wantHash {
			return d, fmt.Errorf("sample: %s session drew different outcomes than its local twin", k.name)
		}
		return d, nil
	}
	if jt.sample, err = sample(); err != nil {
		return jt, err
	}
	if !k.mps {
		// Suspend checkpoints the session and frees its memory; the
		// next sample has to resume it first. A resumed session restarts
		// its sampling stream, so it must repeat the same draws.
		var st server.StatusResponse
		t := time.Now()
		if err := c.call("POST", path+"/suspend", nil, &st); err != nil {
			return jt, err
		}
		jt.suspend = time.Since(t)
		if st.Code != server.CodeOK {
			return jt, fmt.Errorf("suspend: %w: %s %s", errNotOK, st.Code, st.Error)
		}
		if jt.resume, err = sample(); err != nil {
			return jt, err
		}
	}
	var st server.StatusResponse
	deleted = true
	if err := c.call("DELETE", path, nil, &st); err != nil {
		return jt, err
	}
	if st.Code != server.CodeOK {
		return jt, fmt.Errorf("delete: %w: %s %s", errNotOK, st.Code, st.Error)
	}
	return jt, nil
}

// setUp is the set-up of one round, and what setup_s times: generate
// the circuits, start a fresh server with one tenant per client, and
// put it behind a listener.
func (s *serveMix) setUp() (*server.Server, *httptest.Server, time.Duration, error) {
	t0 := time.Now()
	texts, err := s.generate()
	if err != nil {
		return nil, nil, 0, err
	}
	for i, k := range s.kinds {
		k.text = texts[i]
	}
	cfg := server.Config{}
	for c := 0; c < s.clients; c++ {
		cfg.Tenants = append(cfg.Tenants, server.TenantConfig{Name: "tenant" + strconv.Itoa(c), MemoryBudget: 64 << 20})
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("perf: starting qcserve: %w", err)
	}
	ts := httptest.NewServer(srv.Handler())
	return srv, ts, time.Since(t0), nil
}

// stopServer shuts the server down and checks what it leaves behind:
// nothing reserved, nothing on disk.
func (s *serveMix) stopServer(ctx context.Context, srv *server.Server, ts *httptest.Server, chk *checker) {
	ts.Close()
	err := srv.Shutdown(ctx)
	chk.op(err == nil, "%s: shutdown: %v", s.w.name, err)
	chk.op(srv.Ledger().TotalUsed() == 0, "%s: %d bytes still reserved after shutdown", s.w.name, srv.Ledger().TotalUsed())
	_, statErr := os.Stat(srv.DataDir())
	chk.op(errors.Is(statErr, os.ErrNotExist), "%s: data dir %s still exists after shutdown", s.w.name, srv.DataDir())
}

// round starts a server, lets every client work through its seeded
// job list, and shuts the server down.
func (s *serveMix) round(ctx context.Context, n int, chk *checker) (*roundOut, error) {
	out := &roundOut{}
	srv, ts, setup, err := s.setUp()
	if err != nil {
		return nil, err
	}
	out.setup = setup

	var mu sync.Mutex
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < s.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := &serveClient{base: ts.URL, hc: ts.Client()}
			var list []*jobKind
			for _, k := range s.kinds {
				for i := 0; i < s.perKind; i++ {
					list = append(list, k)
				}
			}
			rng := rand.New(rand.NewSource(subSeed(s.seed, 100+n*s.clients+c)))
			rng.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
			for _, k := range list {
				jt, err := cl.job(s, k, "tenant"+strconv.Itoa(c))
				mu.Lock()
				chk.op(err == nil, "%s: %s job of client %d: %v", s.w.name, k.name, c, err)
				if err == nil {
					out.jobs = append(out.jobs, jt)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	out.wall = time.Since(t0)

	out.rejects, err = scrapeRejects(ts)
	chk.op(err == nil && out.rejects == 0, "%s: %v rejected submissions (%v)", s.w.name, out.rejects, err)
	s.stopServer(ctx, srv, ts, chk)
	return out, nil
}

// scrapeRejects reads the three rejection counters off /metrics.
func scrapeRejects(ts *httptest.Server) (float64, error) {
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var total float64
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, value, ok := strings.Cut(sc.Text(), " ")
		if ok && strings.HasPrefix(name, "qcserve_rejections_") {
			v, err := strconv.ParseFloat(value, 64)
			if err != nil {
				return 0, err
			}
			total += v
		}
	}
	return total, sc.Err()
}

// residentHeap is what the process holds for one resident session per
// client: the heap with the sessions' jobs done and their states live,
// over the reading before the server existed.
func (s *serveMix) residentHeap(ctx context.Context, chk *checker) (int64, error) {
	before := heapAfterGC()
	srv, ts, _, err := s.setUp()
	if err != nil {
		return 0, err
	}
	defer s.stopServer(ctx, srv, ts, chk)
	qaoa := s.kinds[len(s.kinds)-1]
	for c := 0; c < s.clients; c++ {
		cl := &serveClient{base: ts.URL, hc: ts.Client()}
		var info server.SessionInfo
		if err := cl.call("POST", "/v1/sessions", server.CreateSessionRequest{Tenant: "tenant" + strconv.Itoa(c), Qubits: s.qubits, Seed: qaoa.seed, BondDim: s.bondDim}, &info); err != nil {
			return 0, err
		}
		body, err := json.Marshal(server.SubmitRequest{Circuit: qaoa.text})
		if err != nil {
			return 0, err
		}
		resp, err := cl.hc.Post(ts.URL+"/v1/sessions/"+info.SessionID+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		_, err = io.Copy(io.Discard, resp.Body) // the stream ends when the job does
		resp.Body.Close()
		if err != nil {
			return 0, err
		}
	}
	return int64(heapAfterGC()) - int64(before), nil
}

// run is both --trace modes of serve-mix: rounds for `seconds`, then
// either the end-to-end or the per-layer view of the same samples. The
// server constructs its simulators itself, so there is no seam to
// trace through; its layer numbers are the client-side timestamps.
func (s *serveMix) run(ctx context.Context, secs float64, trace bool, chk *checker) (*metricSet, error) {
	if err := s.twins(ctx, chk); err != nil {
		return nil, err
	}
	if _, err := s.round(ctx, 0, &checker{}); err != nil { // warm-up, not counted
		return nil, err
	}
	minRounds := 5
	if s.smoke {
		minRounds = 1
	}
	var walls, setups []float64
	var jobs []jobTimes
	var rejects float64
	start := time.Now()
	for n := 1; len(walls) < minRounds || time.Since(start).Seconds() < secs; n++ {
		r, err := s.round(ctx, n, chk)
		if err != nil {
			return nil, err
		}
		walls = append(walls, r.wall.Seconds())
		setups = append(setups, r.setup.Seconds())
		for i := 0; i < extraSetUps; i++ {
			srv, ts, d, err := s.setUp()
			if err != nil {
				return nil, err
			}
			setups = append(setups, d.Seconds())
			s.stopServer(ctx, srv, ts, chk)
		}
		jobs = append(jobs, r.jobs...)
		rejects += r.rejects
	}
	if len(jobs) == 0 {
		return nil, errors.New("perf: serve-mix: no job succeeded")
	}
	col := func(f func(jobTimes) time.Duration) []float64 {
		var xs []float64
		for _, j := range jobs {
			if d := f(j); d > 0 {
				xs = append(xs, d.Seconds())
			}
		}
		return xs
	}
	total := col(func(j jobTimes) time.Duration { return j.total })
	fmt.Fprintf(os.Stderr, "%s: %d rounds, %d jobs; round p25 %.4f s median %.4f s; job p50 %.4f s p90 %.4f s (highest supported percentile p%.0f)\n",
		s.w.name, len(walls), len(jobs), percentile(walls, 25), percentile(walls, 50), percentile(total, 50), percentile(total, 90), supportedTail(len(total)))

	if trace {
		m := newMetricSet(perLayer)
		m.set("job_p50_s", percentile(total, 50))
		m.set("job_p90_s", percentile(total, 90))
		m.set("server.jobs", float64(len(total)))
		m.set("server.rejects", rejects)
		m.set("server.job_tail_pct", supportedTail(len(total)))
		m.set("server.admit_p50_s", percentile(col(func(j jobTimes) time.Duration { return j.admit }), 50))
		m.set("server.queue_run_p50_s", percentile(col(func(j jobTimes) time.Duration { return j.queueRun }), 50))
		m.set("server.sample_p50_s", percentile(col(func(j jobTimes) time.Duration { return j.sample }), 50))
		m.set("server.suspend_p50_s", percentile(col(func(j jobTimes) time.Duration { return j.suspend }), 50))
		m.set("server.resume_p50_s", percentile(col(func(j jobTimes) time.Duration { return j.resume }), 50))
		m.set("qcsim.run_median_s", percentile(walls, 50))
		return m, nil
	}

	retained, err := s.residentHeap(ctx, chk)
	if err != nil {
		return nil, err
	}
	m := newMetricSet(endToEnd)
	m.set("run_s", percentile(walls, 25))
	m.set("setup_s", percentile(setups, 50))
	m.set("retained_heap_bytes", float64(retained))
	ledger, measured, footprint := 1.0, 1.0, int64(0)
	for _, j := range jobs {
		ledger = math.Min(ledger, j.fidelity)
		if j.footprint > footprint {
			footprint = j.footprint
		}
	}
	for _, k := range s.kinds {
		measured = math.Min(measured, k.measured)
	}
	m.set("peak_footprint_bytes", float64(footprint))
	m.set("fidelity_lower_bound", ledger)
	m.set("fidelity_measured", measured)
	return m, nil
}
