package fleet

// Benchmarks for the ingest daemon's two costs: the decode and fold
// that ingest and replay share (CPU-bound), and the whole admission
// path through the HTTP handler (fsync-bound). Both report shards/sec
// so benchdiff can gate regressions on a higher-is-better metric.

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"txsampler/internal/profile"
)

// BenchmarkFleetMergeShardsPerSec measures the decode and fold of one
// shard into its window, the path ingest and journal replay share.
func BenchmarkFleetMergeShardsPerSec(b *testing.B) {
	srv, err := Open(Config{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	payload := wideShardBytes(b, 0, 200)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := profile.Decode(payload)
		if err != nil {
			b.Fatal(err)
		}
		srv.fold(0, db)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "shards/sec")
}

// BenchmarkFleetIngestShardsPerSec measures the full admission path —
// validation, journal append with fsync, fold — through the HTTP
// handler with a distinct idempotency key per shard.
func BenchmarkFleetIngestShardsPerSec(b *testing.B) {
	srv, err := Open(Config{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	payload := wideShardBytes(b, 0, 200)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(payload))
		req.Header.Set(HeaderKey, fmt.Sprintf("ingest-%d", i))
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, req)
		if rw.Code != http.StatusOK {
			b.Fatalf("ingest %d: status %d: %s", i, rw.Code, rw.Body.String())
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "shards/sec")
}
