package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/kit-ces/hayat"
)

// The overload harness: three clients submit 8×8 2-year lifetimes and a
// fourth submits 8×8 10-year lifetimes, each as fast as the server
// admits them, to a server with hayatbench's two workers. A client
// resubmits overloadRetry after every 429, so the queue stays full. The
// first overloadFill lets the queue fill; only the overloadWindow after
// it is measured.
const (
	overloadFill   = 3 * time.Second
	overloadWindow = 10 * time.Second
	overloadRetry  = 5 * time.Millisecond
)

var overloadClients = []struct {
	name  string
	years float64
}{{"short-a", 2}, {"short-b", 2}, {"short-c", 2}, {"long", 10}}

// overloadJob is one job that finished done inside the measured window.
type overloadJob struct {
	client  string
	years   float64
	latency time.Duration // submit → finish
}

// BenchmarkOverloadMix measures what admission makes of offered load far
// above capacity, at two queue depths: goodput (simulated chip-years
// finished per second), the p50 and p99 submit→finish latency of the jobs
// that finished in the window, and the fewest jobs any client finished.
// Each iteration is one fill and one window, so the default benchtime
// runs it once. DESIGN.md §8 records its numbers.
func BenchmarkOverloadMix(b *testing.B) {
	for _, depth := range []int{16, 64} {
		b.Run(fmt.Sprintf("queue=%d", depth), func(b *testing.B) {
			var jobs []overloadJob
			for i := 0; i < b.N; i++ {
				jobs = append(jobs, overloadRun(b, depth)...)
			}
			reportOverload(b, jobs)
		})
	}
}

// overloadRun runs one fill and one window against a fresh server and
// returns the jobs that finished done inside the window.
func overloadRun(b *testing.B, depth int) []overloadJob {
	s, err := New(Options{Workers: 2, QueueDepth: depth})
	if err != nil {
		b.Fatal(err)
	}
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	windowStart := time.Now().Add(overloadFill)
	windowEnd := windowStart.Add(overloadWindow)

	var (
		mu         sync.Mutex
		jobs       []overloadJob
		submitters sync.WaitGroup
		waiters    sync.WaitGroup
	)
	// await records j if it finishes done inside the window. Shutdown
	// turns every job still queued or running terminal, so it returns.
	await := func(j *Job, client string, years float64) {
		defer waiters.Done()
		<-j.done
		s.mu.Lock()
		state, created, finish := j.state, j.created, j.finish
		s.mu.Unlock()
		if state != JobDone || finish.Before(windowStart) || finish.After(windowEnd) {
			return
		}
		mu.Lock()
		jobs = append(jobs, overloadJob{client, years, finish.Sub(created)})
		mu.Unlock()
	}
	for _, c := range overloadClients {
		cfg := hayat.DefaultConfig()
		cfg.Years = c.years
		submitters.Add(1)
		go func(client string, years float64) {
			defer submitters.Done()
			seed := benchSeq.Add(1)
			for ctx.Err() == nil {
				st, err := s.SubmitLifetimeWith(cfg, seed, "hayat", SubmitOpts{Client: client})
				var ae *AdmitError
				switch {
				case errors.As(err, &ae):
					select {
					case <-ctx.Done():
					case <-time.After(overloadRetry):
					}
					continue // resubmit the same request
				case err != nil:
					b.Error(err)
					return
				}
				s.mu.Lock()
				j := s.jobs[st.ID]
				s.mu.Unlock()
				if j != nil {
					waiters.Add(1)
					go await(j, client, years)
				}
				seed = benchSeq.Add(1)
			}
		}(c.name, c.years)
	}
	time.Sleep(time.Until(windowEnd))
	stop()
	submitters.Wait()
	shutdownFast(b, s)
	waiters.Wait()
	return jobs
}

// reportOverload reports goodput, latency percentiles and the fewest jobs
// a client finished, per window, and logs each client's share.
func reportOverload(b *testing.B, jobs []overloadJob) {
	windows := float64(b.N)
	var chipYears float64
	lat := make([]float64, 0, len(jobs))
	byClient := make(map[string][]float64)
	for _, j := range jobs {
		chipYears += j.years
		lat = append(lat, j.latency.Seconds())
		byClient[j.client] = append(byClient[j.client], j.latency.Seconds())
	}
	sort.Float64s(lat)
	minJobs := math.Inf(1)
	for _, c := range overloadClients {
		l := byClient[c.name]
		sort.Float64s(l)
		minJobs = math.Min(minJobs, float64(len(l))/windows)
		b.Logf("%s: %d jobs, p50 %.3f s", c.name, len(l), quantile(l, 0.50))
	}
	b.ReportMetric(chipYears/(windows*overloadWindow.Seconds()), "chip-yr/s")
	b.ReportMetric(quantile(lat, 0.50), "p50-s")
	b.ReportMetric(quantile(lat, 0.99), "p99-s")
	b.ReportMetric(minJobs, "min-client-jobs")
}

// quantile is the nearest-rank q-quantile (0 < q ≤ 1) of sorted values
// (NaN when there are none).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[int(math.Ceil(q*float64(len(sorted))))-1]
}
