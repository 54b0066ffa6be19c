package main

import (
	"context"
	"net/http/httptest"

	"repro/internal/serve"
)

// serveSuite measures the serving layer end to end: an in-process dgefmmd
// (Server.Handler on an httptest listener — real sockets, real HTTP) under
// the standard loadgen mix. This is the same measurement `loadgen -out`
// records against an external daemon, so the serve.* family in the baseline
// can come from either path.
//
// Latency metrics (serve.p50_ms, serve.p99_ms) are lower-is-better; the
// gate inverts their ratio (see LowerIsBetter) so the uniform
// "ratio < 1-tol fails" rule still applies.
func serveSuite(reps int) map[string]float64 {
	shapes, err := serve.ParseShapes("96x96x96:3,64x64x64:2,128x96x64:1")
	if err != nil {
		fatal(err)
	}
	srv := serve.New(nil)
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()

	load := func() *serve.LoadResult {
		res, err := serve.RunLoad(context.Background(), serve.LoadOptions{
			BaseURL: ts.URL,
			Clients: 6,
			Calls:   180,
			Warmup:  3,
			Shapes:  shapes,
			Seed:    1,
		})
		if err != nil {
			fatal(err)
		}
		return res
	}
	load() // warm plans, arenas, and HTTP connections

	runs := make([]*serve.LoadResult, reps)
	for i := range runs {
		runs[i] = load()
	}
	pick := func(name string, f func(*serve.LoadResult) float64) float64 {
		vals := make([]float64, len(runs))
		for i, r := range runs {
			vals[i] = f(r)
		}
		recordNoise(name, vals)
		return medianOf(vals)
	}
	return map[string]float64{
		"serve.calls_per_sec":  pick("serve.calls_per_sec", func(r *serve.LoadResult) float64 { return r.CallsPerSec }),
		"serve.p50_ms":         pick("serve.p50_ms", func(r *serve.LoadResult) float64 { return r.P50ms }),
		"serve.p99_ms":         pick("serve.p99_ms", func(r *serve.LoadResult) float64 { return r.P99ms }),
		"serve.coalesce_ratio": pick("serve.coalesce_ratio", func(r *serve.LoadResult) float64 { return r.CoalesceRatio }),
	}
}
