package service

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// bodyCounter is a ResponseWriter that keeps only the status and the body
// length, so a benchmark counts the handler's work and none of its own.
type bodyCounter struct {
	header http.Header
	code   int
	n      int
}

func (c *bodyCounter) Header() http.Header { return c.header }

func (c *bodyCounter) WriteHeader(code int) {
	if c.code == 0 {
		c.code = code
	}
}

func (c *bodyCounter) Write(p []byte) (int, error) {
	c.WriteHeader(http.StatusOK)
	c.n += len(p)
	return len(p), nil
}

// BenchmarkCachedAnswer measures hayatd's read path: one cached default
// (8×8, 10-year) Hayat lifetime submitted with wait through Handler(), in
// process, from decoding the request to the last byte of the answer. It
// reports µs and allocations per answer (make bench-answer, DESIGN.md §11).
func BenchmarkCachedAnswer(b *testing.B) {
	s, err := New(Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { shutdownFast(b, s) })
	h := s.Handler()
	serve := func() {
		w := &bodyCounter{header: make(http.Header)}
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/lifetime",
			strings.NewReader(`{"seed":1,"policy":"hayat","wait":true}`)))
		if w.code != http.StatusOK || w.n == 0 {
			b.Fatalf("answer: HTTP %d, %d bytes", w.code, w.n)
		}
	}
	serve() // computes and stores the result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "us/answer")
}
