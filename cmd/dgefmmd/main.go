// Command dgefmmd serves GEMM over HTTP: binary DGEFMM calls on
// POST /v1/gemm (see internal/serve for the wire format), with requests
// dispatched to the batch pool at once while a worker is free and grouped
// by shape only behind a busy pool, per-tenant token-bucket quotas,
// admission-control backpressure (429 + Retry-After past the high-water
// mark), client deadline propagation, and an out-of-core tiled path for
// operands past -large-words. The full observability surface rides on the
// same mux: /debug/vars, /debug/pprof/..., /metrics, /openmetrics, /trace,
// /spans, plus /healthz and /v1/stats.
//
// Usage:
//
//	dgefmmd -addr :8433
//	dgefmmd -addr :8433 -workers 4 -max-batch 16
//	dgefmmd -quota-rate 100 -quota-burst 20 -tenant-quotas 'bulk=10:5,vip=1000:200'
//	dgefmmd -large-words 1048576 -spool-dir /var/tmp
//
// SIGINT/SIGTERM shut down gracefully: stop accepting, drain in-flight
// requests, flush pending coalesce groups, close the pool.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/serve"
)

func main() {
	var (
		addr      = flag.String("addr", ":8433", "listen address")
		workers   = flag.Int("workers", 0, "batch pool workers (0 = GOMAXPROCS)")
		queue     = flag.Int("queue", 0, "batch pool queue depth (0 = 4x workers)")
		highWater = flag.Int("high-water", 0, "admission high-water mark; past it requests get 429 (0 = 4x queue depth)")
		maxBatch  = flag.Int("max-batch", 0, "most same-shape calls grouped behind a busy pool (0 = 32)")

		quotaRate  = flag.Float64("quota-rate", 0, "default tenant quota: sustained requests/s (0 = unlimited)")
		quotaBurst = flag.Float64("quota-burst", 0, "default tenant quota: burst size (0 = rate)")
		tenants    = flag.String("tenant-quotas", "", "per-tenant overrides: 'name=rate:burst,...' (rate 0 = always reject)")

		largeWords = flag.Int64("large-words", 0, "route operands past this many float64 words out of core (0 = 1<<24)")
		ooWords    = flag.Int("oo-words", 0, "out-of-core in-core workspace budget in words (0 = package default)")
		spoolDir   = flag.String("spool-dir", "", "stage out-of-core operands in files under this directory (empty = in memory)")

		shutdownTimeout = flag.Duration("shutdown-timeout", 10*time.Second, "graceful drain budget on SIGINT/SIGTERM")
		logLevel        = cli.LogLevelFlag(nil)
	)
	flag.Parse()
	logger := cli.InitLogging(*logLevel)

	quota := serve.QuotaConfig{
		Default: serve.TenantQuota{Rate: *quotaRate, Burst: *quotaBurst},
	}
	if *tenants != "" {
		var err error
		if quota.Tenants, err = parseTenantQuotas(*tenants); err != nil {
			fatal(err)
		}
	}

	gemm := serve.New(&serve.Options{
		Workers:        *workers,
		QueueDepth:     *queue,
		HighWater:      *highWater,
		MaxBatch:       *maxBatch,
		Quota:          quota,
		LargeWords:     *largeWords,
		OutOfCoreWords: *ooWords,
		SpoolDir:       *spoolDir,
		Logger:         logger,
	})

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           gemm.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	h2c := serve.EnableH2C(httpSrv, nil)
	logger.Info("dgefmmd listening", "addr", *addr, "h2c", h2c)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()

	select {
	case err := <-errCh:
		fatal(err)
	case <-ctx.Done():
	}
	stop()
	logger.Info("shutting down", "drain_budget", *shutdownTimeout)

	drainCtx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		logger.Warn("drain incomplete, closing", "err", err)
		httpSrv.Close()
	}
	gemm.Close()
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	logger.Info("dgefmmd stopped")
}

// parseTenantQuotas parses 'name=rate:burst,...'; burst defaults to rate
// when omitted ("name=rate"). An explicit zero rate rejects every request
// from that tenant.
func parseTenantQuotas(spec string) (map[string]serve.TenantQuota, error) {
	out := make(map[string]serve.TenantQuota)
	for _, ent := range strings.Split(spec, ",") {
		ent = strings.TrimSpace(ent)
		if ent == "" {
			continue
		}
		eq := strings.IndexByte(ent, '=')
		if eq <= 0 {
			return nil, fmt.Errorf("bad -tenant-quotas entry %q (want name=rate:burst)", ent)
		}
		name, val := ent[:eq], ent[eq+1:]
		var q serve.TenantQuota
		rateStr, burstStr, hasBurst := strings.Cut(val, ":")
		rate, err := strconv.ParseFloat(rateStr, 64)
		if err != nil || rate < 0 {
			return nil, fmt.Errorf("bad rate in -tenant-quotas entry %q", ent)
		}
		q.Rate = rate
		q.Burst = rate
		if hasBurst {
			burst, err := strconv.ParseFloat(burstStr, 64)
			if err != nil || burst < 0 {
				return nil, fmt.Errorf("bad burst in -tenant-quotas entry %q", ent)
			}
			q.Burst = burst
		}
		out[name] = q
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dgefmmd:", err)
	os.Exit(1)
}
