// Package faultinject provides named failpoints for exercising the
// service's failure paths: disk faults, solver hiccups and slow I/O are
// injected at the hot seams (cache read/write, checkpoint persist,
// thermal solve) instead of being simulated with mocks. A failpoint is
// disarmed by default and costs one atomic load per hit; arming happens
// programmatically (tests) or via the HAYAT_FAILPOINTS environment
// variable.
//
// Trigger specs are deterministic: fail-N-times counts down, and
// probabilistic triggers draw from a per-failpoint RNG seeded from the
// registry seed and the failpoint name, so a given arming always fires on
// the same hit sequence.
//
//	off          disarmed (same as Disarm)
//	always       every hit fails
//	fail(N)      the next N hits fail, later ones pass
//	prob(P)      each hit fails with probability P (deterministic RNG)
//	sleep(D)     each hit is delayed by duration D, then passes
package faultinject

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the root cause of every injected failure; callers tell
// an injected fault apart with errors.Is(err, ErrInjected).
var ErrInjected = errors.New("faultinject: injected fault")

// EnvVar is the environment variable ArmFromEnv reads
// ("name=spec,name=spec,…").
const EnvVar = "HAYAT_FAILPOINTS"

type mode int

const (
	modeAlways mode = iota
	modeFailN
	modeProb
	modeSleep
)

// point is one armed failpoint.
type point struct {
	mu        sync.Mutex
	spec      string
	mode      mode
	remaining int64 // fail(N): hits left to fail
	prob      float64
	rng       *rand.Rand
	delay     time.Duration
	err       error // pre-wrapped ErrInjected naming the failpoint
	hits      int64
	fires     int64
}

// Registry holds a set of named failpoints. The zero value is not usable;
// use NewRegistry (or the package-level Default).
type Registry struct {
	seed  int64
	armed atomic.Int32 // count of armed points: the disarmed fast path
	mu    sync.RWMutex
	pts   map[string]*point
}

// NewRegistry returns an empty registry whose probabilistic triggers
// derive from seed.
func NewRegistry(seed int64) *Registry {
	return &Registry{seed: seed, pts: make(map[string]*point)}
}

// Arm installs (or replaces) the failpoint name with the given spec.
// Spec "off" disarms it.
func (r *Registry) Arm(name, spec string) error {
	name, spec = strings.TrimSpace(name), strings.TrimSpace(spec)
	if name == "" {
		return errors.New("faultinject: empty failpoint name")
	}
	if spec == "off" {
		r.Disarm(name)
		return nil
	}
	p, err := parseSpec(spec)
	if err != nil {
		return fmt.Errorf("faultinject: %s: %w", name, err)
	}
	p.err = fmt.Errorf("failpoint %s (%s): %w", name, spec, ErrInjected)
	if p.mode == modeProb {
		h := fnv.New64a()
		h.Write([]byte(name))
		p.rng = rand.New(rand.NewSource(r.seed ^ int64(h.Sum64())))
	}
	r.mu.Lock()
	if _, existed := r.pts[name]; !existed {
		r.armed.Add(1)
	}
	r.pts[name] = p
	r.mu.Unlock()
	return nil
}

// Disarm removes the failpoint; hits on it pass again.
func (r *Registry) Disarm(name string) {
	r.mu.Lock()
	if _, ok := r.pts[name]; ok {
		delete(r.pts, name)
		r.armed.Add(-1)
	}
	r.mu.Unlock()
}

// DisarmAll removes every failpoint.
func (r *Registry) DisarmAll() {
	r.mu.Lock()
	r.armed.Add(-int32(len(r.pts)))
	r.pts = make(map[string]*point)
	r.mu.Unlock()
}

// ArmSpecs arms a comma-separated "name=spec,name=spec" list.
func (r *Registry) ArmSpecs(specs string) error {
	for _, part := range strings.Split(specs, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, spec, ok := strings.Cut(part, "=")
		if !ok {
			return fmt.Errorf("faultinject: malformed entry %q (want name=spec)", part)
		}
		if err := r.Arm(name, spec); err != nil {
			return err
		}
	}
	return nil
}

// ArmFromEnv arms the registry from the HAYAT_FAILPOINTS environment
// variable; an unset or empty variable is a no-op.
func (r *Registry) ArmFromEnv() error {
	return r.ArmSpecs(os.Getenv(EnvVar))
}

// Hit evaluates the failpoint: nil when disarmed or when the trigger
// decides to pass, an error wrapping ErrInjected when it fires. Sleep
// failpoints block for their delay and pass.
//
//lint:ignore ctxfirst deliberately context-free hot path (one atomic load when disarmed); sleep(D) is the injected fault itself
func (r *Registry) Hit(name string) error {
	if r.armed.Load() == 0 {
		return nil
	}
	r.mu.RLock()
	p := r.pts[name]
	r.mu.RUnlock()
	if p == nil {
		return nil
	}
	p.mu.Lock()
	p.hits++
	var fire bool
	switch p.mode {
	case modeAlways:
		fire = true
	case modeFailN:
		if p.remaining > 0 {
			p.remaining--
			fire = true
		}
	case modeProb:
		fire = p.rng.Float64() < p.prob
	case modeSleep:
		p.fires++
		d := p.delay
		p.mu.Unlock()
		time.Sleep(d)
		return nil
	}
	if fire {
		p.fires++
		err := p.err
		p.mu.Unlock()
		return err
	}
	p.mu.Unlock()
	return nil
}

// PointStats is one failpoint's arming and trigger counters.
type PointStats struct {
	Spec  string `json:"spec"`
	Hits  int64  `json:"hits"`
	Fires int64  `json:"fires"`
}

// Stats snapshots every armed failpoint.
func (r *Registry) Stats() map[string]PointStats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.pts) == 0 {
		return nil
	}
	out := make(map[string]PointStats, len(r.pts))
	for name, p := range r.pts {
		p.mu.Lock()
		out[name] = PointStats{Spec: p.spec, Hits: p.hits, Fires: p.fires}
		p.mu.Unlock()
	}
	return out
}

// Names lists the armed failpoints, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.pts))
	for n := range r.pts {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func parseSpec(spec string) (*point, error) {
	p := &point{spec: spec}
	switch {
	case spec == "always":
		p.mode = modeAlways
	case strings.HasPrefix(spec, "fail(") && strings.HasSuffix(spec, ")"):
		n, err := strconv.ParseInt(spec[5:len(spec)-1], 10, 64)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad fail count in %q", spec)
		}
		p.mode, p.remaining = modeFailN, n
	case strings.HasPrefix(spec, "prob(") && strings.HasSuffix(spec, ")"):
		f, err := strconv.ParseFloat(spec[5:len(spec)-1], 64)
		if err != nil || f < 0 || f > 1 {
			return nil, fmt.Errorf("bad probability in %q", spec)
		}
		p.mode, p.prob = modeProb, f
	case strings.HasPrefix(spec, "sleep(") && strings.HasSuffix(spec, ")"):
		d, err := time.ParseDuration(spec[6 : len(spec)-1])
		if err != nil || d < 0 {
			return nil, fmt.Errorf("bad sleep duration in %q", spec)
		}
		p.mode, p.delay = modeSleep, d
	default:
		return nil, fmt.Errorf("unknown failpoint spec %q", spec)
	}
	return p, nil
}

// Default is the process-wide registry the simulator's seams consult.
var Default = NewRegistry(1)

// Hit evaluates a failpoint on the Default registry.
func Hit(name string) error { return Default.Hit(name) }

// Arm arms a failpoint on the Default registry.
//
//lint:ignore reachability internal/service's tests arm failpoints programmatically
func Arm(name, spec string) error { return Default.Arm(name, spec) }

// DisarmAll disarms every failpoint on the Default registry.
//
//lint:ignore reachability internal/service's tests disarm their failpoints with it
func DisarmAll() { Default.DisarmAll() }

// ArmSpecs arms a "name=spec,…" list on the Default registry.
//
//lint:ignore reachability internal/service's tests arm failpoint specs with it
func ArmSpecs(specs string) error { return Default.ArmSpecs(specs) }

// ArmFromEnv arms the Default registry from HAYAT_FAILPOINTS.
func ArmFromEnv() error { return Default.ArmFromEnv() }

// Stats snapshots the Default registry.
func Stats() map[string]PointStats { return Default.Stats() }

// Names lists the default registry's armed failpoints.
func Names() []string { return Default.Names() }
