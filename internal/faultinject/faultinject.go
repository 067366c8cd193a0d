// Package faultinject is a deterministic, seed-driven fault-injection
// registry for the scan pipeline: named hook sites inside the shard
// scheduler, the chunked stream reader, the database loader and the plane
// cache consult an installed plan and — when a rule fires — inject a
// latency stall, an error, or both. With no plan installed every hook is
// a single atomic load, so production scans pay nothing.
//
// Determinism is the point: a rule's firing decision is a pure function
// of (seed, site, key, call/attempt ordinal), never of wall-clock time or
// goroutine interleaving, so a chaos run is reproducible from its seed
// alone and a test can compute exactly which shards were hit
// (FiredKeys). The key is the site's unit of work — the shard index for
// scheduler sites, the chunk ordinal for stream reads — which is what
// lets sticky rules pin failures to specific shards across retries.
//
// Environment knobs (see EnableFromEnv, used by fabp-serve and the CI
// chaos steps):
//
//	FABP_FAULTS     plan spec, e.g. "sched.shard.dispatch:p=0.02,delay=5ms"
//	FABP_FAULT_SEED decimal seed (default 1)
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fabp/internal/telemetry"
)

// The named hook sites wired into the pipeline. A plan may name any
// string, but these are the sites that exist today.
const (
	// SiteShardDispatch fires at the start of every shard attempt
	// (internal/sched.ProduceResilient): the per-shard latency
	// stall and shard-failure injection point.
	SiteShardDispatch = "sched.shard.dispatch"
	// SiteShardMerge fires as each shard's results enter the ordered
	// merge (sched.GatherCtx / GatherBatchCtx).
	SiteShardMerge = "sched.shard.merge"
	// SiteStreamRead fires before every chunk read of the bounded-memory
	// stream scan (scanChunks): the reference-reader I/O error point.
	SiteStreamRead = "stream.read"
	// SiteDBSection fires at the start of every database file load
	// (internal/db.Read / Inspect): the transient DB read error point.
	SiteDBSection = "db.section.load"
	// SiteCacheEvict fires every time a scan fetches a database's
	// bit-planes and drops them first — a deterministic eviction storm
	// forcing the scan to repack.
	SiteCacheEvict = "bitpar.cache.evict"
)

// ErrInjected is the sentinel every injected error matches via errors.Is
// (unless the rule supplies its own Err).
var ErrInjected = errors.New("faultinject: injected fault")

// InjectedError is the default injected error: it names the site, the
// key and the call ordinal that fired, matches ErrInjected, and is
// transient (Temporary() == true) so the retry layer classifies it as
// retryable.
type InjectedError struct {
	Site string
	Key  uint64
	Call uint64
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("faultinject: %s fired (key %d, call %d)", e.Site, e.Key, e.Call)
}

// Is makes errors.Is(err, ErrInjected) true.
func (e *InjectedError) Is(target error) bool { return target == ErrInjected }

// Temporary marks the fault retryable (see internal/retry.Retryable).
func (e *InjectedError) Temporary() bool { return true }

// Rule configures one site's injection behavior. Triggers compose with
// OR: a call fires when any of Prob / Nth / Every selects it. What a fire
// does: stall for Delay (context-aware), then fail with Err (or a
// transient *InjectedError when Fail is set and Err is nil). A rule with
// only Delay set stalls without failing — the straggler model.
type Rule struct {
	// Prob fires each call with this probability, decided by hashing
	// (seed, site, key, call) — deterministic for a given seed.
	Prob float64
	// Sticky changes Prob's decision input to (seed, site, key) alone:
	// a selected key fires on EVERY call (every retry attempt), so
	// retries against it always exhaust — the permanent-failure model.
	Sticky bool
	// Nth fires exactly the Nth call to the site (1-based, per site).
	Nth uint64
	// Every fires every Every-th call to the site.
	Every uint64
	// Limit caps total fires at the site (0 = unlimited).
	Limit uint64
	// KeyLimit caps fires per key (0 = unlimited): KeyLimit <= the retry
	// budget guarantees every faulted shard eventually succeeds — the
	// transient-failure model.
	KeyLimit uint64
	// Delay stalls the caller before the verdict; the sleep honors the
	// hook's context, so canceled scans are not pinned by injected lag.
	Delay time.Duration
	// Fail injects an error after the stall: Err when non-nil, else a
	// transient *InjectedError. A non-nil Err implies Fail.
	Fail bool
	Err  error
}

// Plan maps site names to rules.
type Plan map[string]Rule

// siteState is one site's runtime state: the immutable rule plus firing
// bookkeeping.
type siteState struct {
	rule  Rule
	calls atomic.Uint64

	mu        sync.Mutex
	fired     uint64
	firedKeys map[uint64]uint64
}

type registry struct {
	seed  uint64
	sites map[string]*siteState
}

var (
	// enabled is the hook fast path: one atomic load when no plan is
	// installed.
	enabled atomic.Bool
	regMu   sync.RWMutex
	reg     *registry

	// firedTotal is the process-wide faultinject.fired telemetry counter.
	firedTotal = telemetry.Default().Counter("faultinject.fired")
)

// Enable installs a plan under a seed, replacing any active plan.
func Enable(seed uint64, plan Plan) {
	r := &registry{seed: seed, sites: make(map[string]*siteState, len(plan))}
	for name, rule := range plan {
		r.sites[name] = &siteState{rule: rule, firedKeys: make(map[uint64]uint64)}
	}
	regMu.Lock()
	reg = r
	regMu.Unlock()
	enabled.Store(len(plan) > 0)
}

// Disable removes the active plan; every hook returns to its one-load
// fast path.
func Disable() {
	enabled.Store(false)
	regMu.Lock()
	reg = nil
	regMu.Unlock()
}

// Enabled reports whether a plan is active.
func Enabled() bool { return enabled.Load() }

// Check is the hook every instrumented site calls. key identifies the
// site's unit of work (shard index, chunk ordinal; 0 when there is no
// natural key). It returns nil when injection is off, the site has no
// rule, or the rule does not fire; a firing rule stalls for its Delay
// (aborted early by ctx, returning ctx.Err()) and then returns the
// injected error, or nil for stall-only rules.
func Check(ctx context.Context, site string, key uint64) error {
	if !enabled.Load() {
		return nil
	}
	regMu.RLock()
	r := reg
	regMu.RUnlock()
	if r == nil {
		return nil
	}
	s := r.sites[site]
	if s == nil {
		return nil
	}
	n := s.calls.Add(1)
	rule := s.rule
	fire := false
	switch {
	case rule.Prob > 0 && rule.Sticky:
		fire = hashFloat(r.seed, site, key, 0) < rule.Prob
	case rule.Prob > 0:
		fire = hashFloat(r.seed, site, key, n) < rule.Prob
	}
	if rule.Nth > 0 && n == rule.Nth {
		fire = true
	}
	if rule.Every > 0 && n%rule.Every == 0 {
		fire = true
	}
	if !fire {
		return nil
	}
	// Budget the fire under the site lock (fires are rare; calls that do
	// not fire never take it).
	s.mu.Lock()
	if rule.Limit > 0 && s.fired >= rule.Limit {
		s.mu.Unlock()
		return nil
	}
	if rule.KeyLimit > 0 && s.firedKeys[key] >= rule.KeyLimit {
		s.mu.Unlock()
		return nil
	}
	s.fired++
	s.firedKeys[key]++
	s.mu.Unlock()
	firedTotal.Inc()

	if rule.Delay > 0 {
		t := time.NewTimer(rule.Delay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if rule.Err != nil {
		return rule.Err
	}
	if rule.Fail {
		return &InjectedError{Site: site, Key: key, Call: n}
	}
	return nil
}

// Fired returns how many times the named site has fired under the
// current plan.
func Fired(site string) uint64 {
	regMu.RLock()
	r := reg
	regMu.RUnlock()
	if r == nil || r.sites[site] == nil {
		return 0
	}
	s := r.sites[site]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fired
}

// FiredKeys returns the sorted distinct keys at which the named site has
// fired — for sticky rules, exactly the units of work pinned to fail.
func FiredKeys(site string) []uint64 {
	regMu.RLock()
	r := reg
	regMu.RUnlock()
	if r == nil || r.sites[site] == nil {
		return nil
	}
	s := r.sites[site]
	s.mu.Lock()
	keys := make([]uint64, 0, len(s.firedKeys))
	for k := range s.firedKeys {
		keys = append(keys, k)
	}
	s.mu.Unlock()
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// Calls returns how many times the named site's hook has been consulted
// under the current plan.
func Calls(site string) uint64 {
	regMu.RLock()
	r := reg
	regMu.RUnlock()
	if r == nil || r.sites[site] == nil {
		return 0
	}
	return r.sites[site].calls.Load()
}

// hashFloat maps (seed, site, key, n) to [0, 1) via splitmix64 over an
// FNV-1a site hash — cheap, stateless, and identical across runs.
func hashFloat(seed uint64, site string, key, n uint64) float64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(site); i++ {
		h ^= uint64(site[i])
		h *= 1099511628211
	}
	x := mix(seed ^ h)
	x = mix(x ^ key)
	x = mix(x ^ n)
	return float64(x>>11) / float64(uint64(1)<<53)
}

func mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// EnableFromEnv installs a plan from FABP_FAULTS / FABP_FAULT_SEED. The
// spec is semicolon-separated sites, each "site:field=value,...":
//
//	FABP_FAULTS="sched.shard.dispatch:p=0.02,delay=5ms;stream.read:nth=3,fail"
//	FABP_FAULT_SEED=42
//
// Fields: p (probability), sticky, nth, every, limit, keylimit, delay
// (Go duration), fail. A rule naming neither delay nor fail defaults to
// fail. Returns (false, nil) when FABP_FAULTS is unset or empty.
func EnableFromEnv() (bool, error) {
	spec := strings.TrimSpace(os.Getenv("FABP_FAULTS"))
	if spec == "" {
		return false, nil
	}
	seed := uint64(1)
	if s := strings.TrimSpace(os.Getenv("FABP_FAULT_SEED")); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return false, fmt.Errorf("faultinject: bad FABP_FAULT_SEED %q: %v", s, err)
		}
		seed = v
	}
	plan, err := ParsePlan(spec)
	if err != nil {
		return false, err
	}
	Enable(seed, plan)
	return true, nil
}

// ParsePlan parses the FABP_FAULTS spec format (see EnableFromEnv).
func ParsePlan(spec string) (Plan, error) {
	plan := Plan{}
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		site, fields, ok := strings.Cut(entry, ":")
		site = strings.TrimSpace(site)
		if !ok || site == "" {
			return nil, fmt.Errorf("faultinject: bad entry %q (want site:field=value,...)", entry)
		}
		var rule Rule
		sawAction := false
		for _, f := range strings.Split(fields, ",") {
			f = strings.TrimSpace(f)
			if f == "" {
				continue
			}
			name, val, _ := strings.Cut(f, "=")
			var err error
			switch name {
			case "p":
				rule.Prob, err = strconv.ParseFloat(val, 64)
			case "sticky":
				rule.Sticky = true
			case "nth":
				rule.Nth, err = strconv.ParseUint(val, 10, 64)
			case "every":
				rule.Every, err = strconv.ParseUint(val, 10, 64)
			case "limit":
				rule.Limit, err = strconv.ParseUint(val, 10, 64)
			case "keylimit":
				rule.KeyLimit, err = strconv.ParseUint(val, 10, 64)
			case "delay":
				rule.Delay, err = time.ParseDuration(val)
				sawAction = true
			case "fail":
				rule.Fail = true
				sawAction = true
			default:
				err = fmt.Errorf("unknown field %q", name)
			}
			if err != nil {
				return nil, fmt.Errorf("faultinject: %s: field %q: %v", site, f, err)
			}
		}
		if !sawAction {
			rule.Fail = true
		}
		plan[site] = rule
	}
	if len(plan) == 0 {
		return nil, fmt.Errorf("faultinject: empty plan spec")
	}
	return plan, nil
}
