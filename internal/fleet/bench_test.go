package fleet

// Benchmarks for the ingest daemon's two throughput axes: the
// journaled admission path (fsync-bound) and the decode+fold merge
// pipeline (CPU-bound, scales with MergeWorkers). Both report
// shards/sec so benchdiff can gate regressions on a
// higher-is-better metric.

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"
)

// benchRecords pre-builds n distinct already-validated shard records
// so the benchmark loop measures only the merge pipeline.
func benchRecords(b *testing.B, n int) []Shard {
	recs := make([]Shard, n)
	for i := range recs {
		recs[i] = Shard{
			Key:     fmt.Sprintf("bench-%d", i),
			Window:  0,
			Payload: wideShardBytes(b, 0, 200),
		}
	}
	return recs
}

// mergeShardsPerSec pushes b.N pre-journaled records straight into the
// merge queue and waits for the worker pool to fold them all.
func mergeShardsPerSec(b *testing.B, workers int) {
	srv, err := Open(Config{Dir: b.TempDir(), MergeWorkers: workers, QueueCap: 256})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	recs := benchRecords(b, 64)
	// The records bypass handleIngest, so account for them up front to
	// keep the lag arithmetic (appended - merged) from underflowing.
	srv.mu.Lock()
	srv.appended = uint64(b.N)
	srv.mu.Unlock()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.queue <- recs[i%len(recs)]
	}
	for srv.merged.Load() < uint64(b.N) {
		time.Sleep(50 * time.Microsecond)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "shards/sec")
}

// BenchmarkFleetMergeShardsPerSec measures merge-pipeline throughput
// with one worker versus a full pool. The parallel/single ratio is the
// fan-in scaling number the fleet daemon's sizing relies on (on a
// single-core host the two coincide).
func BenchmarkFleetMergeShardsPerSec(b *testing.B) {
	// "max" rather than the numeric GOMAXPROCS so the benchmark name —
	// and the checked-in baseline key — is stable across runner core
	// counts.
	b.Run("workers=1", func(b *testing.B) { mergeShardsPerSec(b, 1) })
	b.Run("workers=max", func(b *testing.B) { mergeShardsPerSec(b, runtime.GOMAXPROCS(0)) })
}

// BenchmarkFleetIngestShardsPerSec measures the full admission path —
// validation, journal append with fsync, queueing — through the HTTP
// handler with a distinct idempotency key per shard.
func BenchmarkFleetIngestShardsPerSec(b *testing.B) {
	srv, err := Open(Config{Dir: b.TempDir(), QueueCap: 1 << 16, MaxLag: 1 << 30})
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
		if rw.Code != http.StatusOK && rw.Code != http.StatusAccepted {
			b.Fatalf("ingest %d: status %d: %s", i, rw.Code, rw.Body.String())
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "shards/sec")
	waitLagZeroB(b, srv)
}

func waitLagZeroB(b *testing.B, srv *Server) {
	deadline := time.Now().Add(30 * time.Second)
	for srv.Lag() != 0 {
		if time.Now().After(deadline) {
			b.Fatalf("merge lag stuck at %d", srv.Lag())
		}
		time.Sleep(time.Millisecond)
	}
}
