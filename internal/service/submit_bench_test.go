package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
)

// benchSeq hands out globally unique seeds so no two submissions in a
// benchmark run coalesce onto the same cache key.
var benchSeq atomic.Int64

const benchCfgJSON = `{"Rows":4,"Cols":4,"Years":1,"WindowSeconds":1,"MixApps":2}`

// newParkedServer builds a server whose lone worker is parked on a
// stalled blocker job (submitBlocker), so accepted jobs stay queued and
// only admission decides what happens to a submit — compute never
// shadows the submit path.
func newParkedServer(tb testing.TB, opts Options) (*Server, *httptest.Server) {
	tb.Helper()
	opts.Workers = 1
	s, err := New(opts)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { shutdownFast(tb, s) })
	submitBlocker(tb, s)
	ts := httptest.NewServer(s.Handler())
	tb.Cleanup(ts.Close)
	return s, ts
}

// newSubmitBenchServer is a parked server with a durable journal, so the
// measurement is pure admission + journal append.
func newSubmitBenchServer(b *testing.B, batchSize int) *httptest.Server {
	b.Helper()
	_, ts := newParkedServer(b, Options{
		QueueDepth:  b.N*batchSize + 64, // every submission must be admitted
		JournalPath: filepath.Join(b.TempDir(), "jobs.journal"),
	})
	return ts
}

// BenchmarkSubmitThroughput measures the client-visible cost of getting
// 256 jobs accepted. mode=single performs 256 individual POST /v1/lifetime
// requests (one admission pass and one journal fsync each); mode=batch256
// submits the same 256 items in one POST /v1/batch (one admission pass,
// one fsync). The committed baseline (BENCH_PR6.json)
// records the batch speedup as speedups_vs_single.
func BenchmarkSubmitThroughput(b *testing.B) {
	const batchSize = 256

	b.Run("mode=single", func(b *testing.B) {
		ts := newSubmitBenchServer(b, batchSize)
		client := ts.Client()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < batchSize; j++ {
				body := fmt.Sprintf(`{"config":%s,"seed":%d,"policy":"hayat"}`, benchCfgJSON, benchSeq.Add(1))
				resp, err := client.Post(ts.URL+"/v1/lifetime", "application/json", strings.NewReader(body))
				if err != nil {
					b.Fatal(err)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted {
					b.Fatalf("submit %d: HTTP %d", j, resp.StatusCode)
				}
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(batchSize)*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
	})

	b.Run(fmt.Sprintf("mode=batch%d", batchSize), func(b *testing.B) {
		ts := newSubmitBenchServer(b, batchSize)
		client := ts.Client()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var req BatchRequest
			for j := 0; j < batchSize; j++ {
				req.Items = append(req.Items, BatchItem{
					Config: json.RawMessage(benchCfgJSON),
					Seed:   benchSeq.Add(1),
					Policy: "hayat",
				})
			}
			blob, err := json.Marshal(req)
			if err != nil {
				b.Fatal(err)
			}
			resp, err := client.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(blob))
			if err != nil {
				b.Fatal(err)
			}
			var br BatchResponse
			if derr := json.NewDecoder(resp.Body).Decode(&br); derr != nil {
				b.Fatal(derr)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || br.Accepted != batchSize {
				b.Fatalf("batch: HTTP %d, accepted %d/%d", resp.StatusCode, br.Accepted, batchSize)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(batchSize)*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
	})
}
