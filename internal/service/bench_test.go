package service

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"seldon/internal/core"
	"seldon/internal/obs"
)

// BenchmarkCheckHandler measures the three /v1/check serving paths
// end-to-end through the handler (mux, telemetry, tracing, encoding
// included): a warm cache hit, a cold miss running the full pipeline
// through the pooled scratch, and a coalesced follower splicing a
// shared flight result. Run with -benchmem; make bench-json folds the
// numbers into the snapshot.
func BenchmarkCheckHandler(b *testing.B) {
	body := []byte(taintedSrc)
	newServer := func(cfg Config) *Server {
		cfg.Spec = testSpec()
		cfg.Metrics = obs.New()
		return New(cfg)
	}
	serve := func(b *testing.B, h http.Handler) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/check", bytes.NewReader(body))
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("check status = %d", rec.Code)
		}
	}

	b.Run("hit", func(b *testing.B) {
		s := newServer(Config{})
		h := s.Handler()
		serve(b, h) // populate the cache
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serve(b, h)
		}
	})

	b.Run("miss", func(b *testing.B) {
		s := newServer(Config{CheckCacheEntries: -1})
		h := s.Handler()
		serve(b, h) // warm the pools
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serve(b, h)
		}
	})

	b.Run("coalesced", func(b *testing.B) {
		s := newServer(Config{})
		root := s.cfg.Tracer.StartRootFrom("http.check", "")
		res, err := s.check(root, s.currentStore(), "request.py", taintedSrc, false, false, &core.Scratch{})
		root.End()
		if err != nil {
			b.Fatal(err)
		}
		done := make(chan struct{})
		close(done)
		f := &flight{done: done, res: res}
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec := httptest.NewRecorder()
			root := s.cfg.Tracer.StartRootFrom("http.check", "")
			span := s.startCheck()
			s.followFlight(rec, ctx, root, span, "request.py", f)
			root.End()
			if rec.Code != http.StatusOK {
				b.Fatalf("follower status = %d", rec.Code)
			}
		}
	})
}
