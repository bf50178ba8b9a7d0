package main

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// clients is the number of worker goroutines or HTTP clients that apply
// load: one per core of the 2-core machine the benchmark is sized for.
const clients = 2

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 3

// loopResult is what a closed loop measured.
type loopResult struct {
	lat       []float64        // seconds per successful operation
	n         [clients]int     // successful operations per client
	years     [clients]float64 // chip-years simulated or delivered per client
	end       [clients]float64 // seconds from start to each client's last completion
	attempted int
	failed    int
	problems  []string
}

// rate sums the clients' own rates, each its work over the time to its
// last completion, so no client's idle tail after the deadline dilutes it.
func (r *loopResult) rate(work func(c int) float64) float64 {
	total := 0.0
	for c := 0; c < clients; c++ {
		if r.end[c] > 0 {
			total += work(c) / r.end[c]
		}
	}
	return total
}

func (r *loopResult) requestsPerS() float64 {
	return r.rate(func(c int) float64 { return float64(r.n[c]) })
}

func (r *loopResult) chipYearsPerS() float64 {
	return r.rate(func(c int) float64 { return r.years[c] })
}

// closedLoop runs op on `clients` goroutines; each client starts its next
// operation only when its previous one has returned. Operation k (counted
// across clients from 0) is handed out while less than d has passed, and
// always while fewer than minOps have been handed out; limit, when
// positive, caps the count. op returns the chip-years it simulated or
// delivered and its latency, which leaves out the client's own work such
// as checking the answer. closedLoop returns once every started operation
// has ended.
func closedLoop(ctx context.Context, d time.Duration, minOps, limit int, op func(c, k int) (float64, time.Duration, error)) *loopResult {
	res := &loopResult{}
	var (
		mu   sync.Mutex
		next int
		wg   sync.WaitGroup
	)
	start := time.Now()
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if ctx.Err() != nil || (limit > 0 && next >= limit) || (next >= minOps && time.Since(start) >= d) {
			return 0, false
		}
		next++
		res.attempted++
		return next - 1, true
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				k, ok := take()
				if !ok {
					return
				}
				years, lat, err := op(c, k)
				end := time.Since(start).Seconds()
				mu.Lock()
				if err != nil {
					res.fail(fmt.Sprintf("operation %d: %v", k, err))
				} else {
					res.lat = append(res.lat, lat.Seconds())
					res.n[c]++
					res.years[c] += years
					res.end[c] = end
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return res
}

// fail counts one failed operation or check; the first few are kept for
// the report.
func (r *loopResult) fail(msg string) {
	r.failed++
	if len(r.problems) < 10 {
		r.problems = append(r.problems, msg)
	}
}
