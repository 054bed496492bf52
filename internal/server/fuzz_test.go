package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// FuzzServerRequests posts the fuzz bytes as the body of create, submit
// and sample to an in-process server. Every answer — each event of an
// admitted job's stream included — must carry a code from the server's
// code table (codeStatus) on its HTTP status, no handler may panic (the
// server would drop the connection), and afterwards the ledger must
// hold exactly what the live sessions reserve.
func FuzzServerRequests(f *testing.F) {
	for _, seed := range []string{
		`{"tenant":"a","qubits":3,"seed":1}`,
		`{"tenant":"a","qubits":62,"block_amps":3}`,
		`{"circuit":"qubits 3\nh 0\ncx 0 1\nrz 2 0.5\nmeasure 2\n"}`,
		`{"circuit":"qubits 3\nh 0\n","variants":4096}`,
		`{"circuit":"qubits 3\nfrobnicate 9\n"}`,
		`{"shots":8}`,
		`{"shots":0}`,
		`{"shots":1048577}`,
		`{`, ``, `null`, `[]`, `{"qubits":"x"}`, `{"shots":8} trailing`,
	} {
		f.Add([]byte(seed))
	}
	srv, err := New(Config{
		Tenants:      []TenantConfig{{Name: "a", MemoryBudget: 1 << 20}},
		GlobalBudget: 2 << 20,
		Workers:      1,
	})
	if err != nil {
		f.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	f.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	hc := ts.Client()
	// post sends body to path and returns the codes the answer carries:
	// the status's, or each event's of a job stream. A created session
	// is closed again.
	post := func(t *testing.T, path string, body []byte) []Code {
		t.Helper()
		resp, err := hc.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s %q: %v", path, body, err)
		}
		defer resp.Body.Close()
		if !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream") {
			var st struct {
				Code      Code   `json:"code"`
				SessionID string `json:"session_id"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Fatalf("POST %s %q: undecodable answer: %v", path, body, err)
			}
			if want, ok := codeStatus[st.Code]; !ok || resp.StatusCode != want {
				t.Fatalf("POST %s %q: code %q on HTTP %d", path, body, st.Code, resp.StatusCode)
			}
			if path == "/v1/sessions" && st.Code == CodeOK {
				req, _ := http.NewRequest("DELETE", ts.URL+"/v1/sessions/"+st.SessionID, nil)
				if resp, err := hc.Do(req); err == nil {
					resp.Body.Close()
				}
			}
			return []Code{st.Code}
		}
		var codes []Code
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
				var ev JobEvent
				if err := json.Unmarshal([]byte(data), &ev); err != nil {
					t.Fatalf("POST %s %q: bad event %q: %v", path, body, data, err)
				}
				if _, ok := codeStatus[ev.Code]; ev.Code != "" && !ok {
					t.Fatalf("POST %s %q: event %+v carries code %q", path, body, ev, ev.Code)
				}
				codes = append(codes, ev.Code)
			}
		}
		if len(codes) == 0 || codes[0] == "" {
			t.Fatalf("POST %s %q: a job stream that opens without an admission code: %v", path, body, codes)
		}
		return codes
	}
	// A session with a job behind it, so a sample reaches the sampler.
	var info SessionInfo
	resp, err := hc.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(`{"tenant":"a","qubits":3,"seed":1}`))
	if err != nil {
		f.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if err != nil || info.Code != CodeOK {
		f.Fatalf("create: %v %+v", err, info)
	}
	sess := "/v1/sessions/" + info.SessionID
	f.Fuzz(func(t *testing.T, body []byte) {
		if codes := post(t, sess+"/jobs", []byte(`{"circuit":"qubits 3\nh 0\ncx 0 1\n"}`)); !codes[0].Admitted() {
			t.Fatalf("the fixed session's job was not admitted: %v", codes)
		}
		for _, path := range []string{"/v1/sessions", sess + "/jobs", sess + "/sample"} {
			post(t, path, body)
		}
		srv.mu.Lock()
		var held int64
		for _, s := range srv.sessions {
			s.mu.Lock()
			held += s.reserved
			s.mu.Unlock()
		}
		srv.mu.Unlock()
		if used := srv.Ledger().TotalUsed(); used != held {
			t.Fatalf("body %q: the ledger holds %d bytes, the sessions reserve %d", body, used, held)
		}
	})
}
