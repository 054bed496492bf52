// Command qcserve runs the multi-tenant simulation server: sessions
// over the qcsim facade with per-tenant memory budgets and rate
// limits, admission-controlled job submission, SSE progress streams,
// suspend/resume of idle sessions, and a /metrics surface. See
// internal/server/protocol.go for the wire protocol.
//
// Usage:
//
//	qcserve -addr :8080 \
//	        -tenant alice:1GiB:10:20 -tenant bob:256MiB \
//	        -global-budget 4GiB -disk-budget 64GiB \
//	        -queue 128 -workers 4 -idle-suspend 5m -dir /var/lib/qcserve
//
// Each -tenant is name:budget[:rate[:burst]] — budget takes byte-size
// suffixes (KiB/MiB/GiB or KB/MB/GB, or a plain byte count; 0 =
// unlimited), rate is job submissions per second (0 = unlimited), and
// burst is the token-bucket depth. SIGINT/SIGTERM shut down
// gracefully: the queue drains, live sessions suspend to checkpoints,
// and (with no -dir) the temp data directory is removed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"qcsim/internal/server"
)

// parseBytes parses "512", "64KiB", "1.5GiB", "2GB" into bytes.
func parseBytes(s string) (int64, error) {
	s = strings.TrimSpace(s)
	units := []struct {
		suffix string
		mult   float64
	}{
		{"KiB", 1 << 10}, {"MiB", 1 << 20}, {"GiB", 1 << 30}, {"TiB", 1 << 40},
		{"KB", 1e3}, {"MB", 1e6}, {"GB", 1e9}, {"TB", 1e12},
		{"K", 1 << 10}, {"M", 1 << 20}, {"G", 1 << 30}, {"T", 1 << 40},
		{"B", 1},
	}
	mult := 1.0
	num := s
	for _, u := range units {
		if strings.HasSuffix(s, u.suffix) {
			mult = u.mult
			num = strings.TrimSpace(strings.TrimSuffix(s, u.suffix))
			break
		}
	}
	v, err := strconv.ParseFloat(num, 64)
	if err != nil {
		return 0, fmt.Errorf("bad byte size %q", s)
	}
	if v < 0 {
		return 0, fmt.Errorf("negative byte size %q", s)
	}
	return int64(v * mult), nil
}

// parseTenant parses name:budget[:rate[:burst]].
func parseTenant(s string) (server.TenantConfig, error) {
	var tc server.TenantConfig
	parts := strings.Split(s, ":")
	if len(parts) < 2 || len(parts) > 4 || parts[0] == "" {
		return tc, fmt.Errorf("bad -tenant %q: want name:budget[:rate[:burst]]", s)
	}
	tc.Name = parts[0]
	budget, err := parseBytes(parts[1])
	if err != nil {
		return tc, fmt.Errorf("bad -tenant %q: %w", s, err)
	}
	tc.MemoryBudget = budget
	if len(parts) >= 3 {
		rate, err := strconv.ParseFloat(parts[2], 64)
		if err != nil || rate < 0 {
			return tc, fmt.Errorf("bad -tenant %q: rate %q", s, parts[2])
		}
		tc.RatePerSec = rate
	}
	if len(parts) == 4 {
		burst, err := strconv.Atoi(parts[3])
		if err != nil || burst < 0 {
			return tc, fmt.Errorf("bad -tenant %q: burst %q", s, parts[3])
		}
		tc.Burst = burst
	}
	return tc, nil
}

// tenantList collects repeated -tenant flags.
type tenantList []server.TenantConfig

func (tl *tenantList) String() string { return fmt.Sprint(*tl) }
func (tl *tenantList) Set(s string) error {
	tc, err := parseTenant(s)
	if err != nil {
		return err
	}
	*tl = append(*tl, tc)
	return nil
}

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		globalStr   = flag.String("global-budget", "0", "process-wide resident-bytes cap (0 = unlimited)")
		diskStr     = flag.String("disk-budget", "0", "disk bytes for the spill admission route (0 = disabled)")
		queue       = flag.Int("queue", 64, "job queue depth")
		workers     = flag.Int("workers", 2, "worker pool size")
		idleSuspend = flag.Duration("idle-suspend", 0, "suspend sessions idle longer than this (0 = never)")
		dir         = flag.String("dir", "", "data directory for checkpoints and spill files (default: fresh temp dir, removed at shutdown)")
		tenants     tenantList
	)
	flag.Var(&tenants, "tenant", "tenant spec name:budget[:rate[:burst]] (repeatable)")
	flag.Parse()

	globalBudget, err := parseBytes(*globalStr)
	if err != nil {
		log.Fatalf("qcserve: -global-budget: %v", err)
	}
	diskBudget, err := parseBytes(*diskStr)
	if err != nil {
		log.Fatalf("qcserve: -disk-budget: %v", err)
	}
	if len(tenants) == 0 {
		log.Fatal("qcserve: at least one -tenant is required (e.g. -tenant alice:1GiB:10:20)")
	}

	srv, err := server.New(server.Config{
		Tenants:      tenants,
		GlobalBudget: globalBudget,
		DiskBudget:   diskBudget,
		QueueDepth:   *queue,
		Workers:      *workers,
		DataDir:      *dir,
		IdleSuspend:  *idleSuspend,
	})
	if err != nil {
		log.Fatalf("qcserve: %v", err)
	}

	// A client gets ReadHeaderTimeout to send its request headers, so an
	// idle or trickling connection cannot hold a goroutine forever; the
	// handlers cap the body (server.MaxRequestBytes). No read or write
	// timeout: a job's SSE stream lasts as long as its run.
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("qcserve: listening on %s (%d tenants, data dir %s)", *addr, len(tenants), srv.DataDir())

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		log.Printf("qcserve: %v — draining", sig)
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("qcserve: %v", err)
		}
		return
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("qcserve: http shutdown: %v", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("qcserve: drain: %v", err)
	}
	log.Print("qcserve: stopped")
}
