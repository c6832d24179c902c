// Package faultpoint provides named fault-injection sites for the
// robustness machinery: every crash-containment and degradation claim
// the service makes (panic quarantine, session discard, overload
// shedding, graceful drain under fire) is provable on demand by arming
// a site instead of waiting for a real solver bug.
//
// A site is one call to Hit("name") on a code path worth breaking.
// Unarmed — the production state — Hit costs a single atomic load and
// returns nil, so sites are safe to leave in solver hot loops. Arming a
// site attaches a deterministic Schedule: on the Nth hit (optionally
// every hit from the Nth on) the site fires one of four fault kinds:
//
//   - KindPanic: Hit panics with *Injected — exercises the recover /
//     session-discard / quarantine paths.
//   - KindError: Hit returns *Injected — exercises error propagation
//     (builder failure, cache rejection, admission failure).
//   - KindDelay: Hit sleeps for the scheduled duration, then returns
//     nil — exercises timeout clamps and backpressure.
//   - KindCancel: Hit returns *Injected tagged as a cancellation —
//     solver sites treat it exactly like their cooperative cancel flag
//     (return Unknown), service sites treat it like KindError.
//
// Sites are armed programmatically (Arm, from tests) or from the
// BMCD_FAULTPOINTS environment variable (ArmFromEnv, from the chaos
// smoke): a comma-separated list of site=kind@N entries, e.g.
//
//	BMCD_FAULTPOINTS='jsat.query=panic@1,service.cache.put=error@2+,sat.propagate=delay@10+:5ms'
//
// where N is the 1-based hit that fires, a trailing '+' fires every hit
// from the Nth on, and delay takes a duration argument after ':'.
//
// The wired sites (see the README's failure-containment section):
//
//	sat.propagate            once per CDCL propagation round
//	sat.analyze              once per conflict analysis
//	jsat.query               once per jSAT budget poll (every SAT query
//	                         and frame push)
//	qbf.node                 once per QDPLL search node
//	service.session.build    cold warm-session construction
//	service.cache.put        verdict-cache fill
//	service.queue.admit      the admission gate, once per check or batch
//	service.witness.validate witness replay before serving
//	service.certificate.validate
//	                         invariant-certificate replay before serving
//	service.replicate.send   verdict write-behind push to one peer
//	                         (fires on the worker goroutine)
//	service.repair.pull      catch-up pull of a peer's verdict cache
package faultpoint

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind is the fault a fired site injects.
type Kind uint8

// The injectable fault kinds.
const (
	KindPanic Kind = iota
	KindError
	KindDelay
	KindCancel
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindPanic:
		return "panic"
	case KindError:
		return "error"
	case KindDelay:
		return "delay"
	case KindCancel:
		return "cancel"
	}
	return "unknown"
}

func parseKind(s string) (Kind, error) {
	switch s {
	case "panic":
		return KindPanic, nil
	case "error":
		return KindError, nil
	case "delay":
		return KindDelay, nil
	case "cancel":
		return KindCancel, nil
	}
	return 0, fmt.Errorf("faultpoint: unknown kind %q (want panic, error, delay or cancel)", s)
}

// Injected is the value a fired faultpoint produces: the panic value
// under KindPanic, the returned error under KindError and KindCancel.
type Injected struct {
	Site string
	Kind Kind
}

// Error implements the error interface.
func (e *Injected) Error() string {
	return fmt.Sprintf("faultpoint: injected %s at %s", e.Kind, e.Site)
}

// Schedule says when an armed site fires and what it injects.
type Schedule struct {
	// Kind is the fault to inject.
	Kind Kind
	// On is the 1-based hit count that fires (0 means 1: first hit).
	On uint64
	// Repeat fires on every hit from the Nth on, not just the Nth.
	Repeat bool
	// Delay is KindDelay's sleep duration (default 10ms).
	Delay time.Duration
}

type site struct {
	sched Schedule
	hits  atomic.Uint64
	fires atomic.Uint64
}

var (
	// armedCount is Hit's fast path: zero sites armed (the production
	// state) means one atomic load and out.
	armedCount atomic.Int32

	mu    sync.RWMutex
	sites map[string]*site
)

// Hit marks one pass over the named site. It returns nil unless the
// site is armed and its schedule fires on this hit, in which case it
// panics (KindPanic), sleeps then returns nil (KindDelay), or returns
// the *Injected fault (KindError, KindCancel).
func Hit(name string) error {
	if armedCount.Load() == 0 {
		return nil
	}
	mu.RLock()
	st := sites[name]
	mu.RUnlock()
	if st == nil {
		return nil
	}
	n := st.hits.Add(1)
	on := st.sched.On
	if on == 0 {
		on = 1
	}
	if n != on && !(st.sched.Repeat && n > on) {
		return nil
	}
	st.fires.Add(1)
	switch st.sched.Kind {
	case KindPanic:
		panic(&Injected{Site: name, Kind: KindPanic})
	case KindDelay:
		d := st.sched.Delay
		if d <= 0 {
			d = 10 * time.Millisecond
		}
		time.Sleep(d)
		return nil
	default:
		return &Injected{Site: name, Kind: st.sched.Kind}
	}
}

// Arm attaches a schedule to the named site, resetting its hit count.
func Arm(name string, s Schedule) {
	mu.Lock()
	defer mu.Unlock()
	if sites == nil {
		sites = make(map[string]*site)
	}
	if _, ok := sites[name]; !ok {
		armedCount.Add(1)
	}
	sites[name] = &site{sched: s}
}

// Reset disarms every site.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	armedCount.Add(-int32(len(sites)))
	sites = nil
}

// Hits returns the armed site's hit count (0 when not armed).
func Hits(name string) uint64 {
	mu.RLock()
	defer mu.RUnlock()
	if st := sites[name]; st != nil {
		return st.hits.Load()
	}
	return 0
}

// Fires returns how many times the armed site has fired.
func Fires(name string) uint64 {
	mu.RLock()
	defer mu.RUnlock()
	if st := sites[name]; st != nil {
		return st.fires.Load()
	}
	return 0
}

// SiteStatus is one armed site's state, for observability surfaces.
type SiteStatus struct {
	Site     string `json:"site"`
	Schedule string `json:"schedule"`
	Hits     uint64 `json:"hits"`
	Fires    uint64 `json:"fires"`
}

// Snapshot lists every armed site, sorted by name. Empty (the common
// case) means no faults are being injected.
func Snapshot() []SiteStatus {
	mu.RLock()
	defer mu.RUnlock()
	if len(sites) == 0 {
		return nil
	}
	out := make([]SiteStatus, 0, len(sites))
	for name, st := range sites {
		out = append(out, SiteStatus{
			Site:     name,
			Schedule: formatSchedule(st.sched),
			Hits:     st.hits.Load(),
			Fires:    st.fires.Load(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Site < out[j].Site })
	return out
}

func formatSchedule(s Schedule) string {
	on := s.On
	if on == 0 {
		on = 1
	}
	out := fmt.Sprintf("%s@%d", s.Kind, on)
	if s.Repeat {
		out += "+"
	}
	if s.Kind == KindDelay && s.Delay > 0 {
		out += ":" + s.Delay.String()
	}
	return out
}

// ArmFromEnv arms every site named in spec, the BMCD_FAULTPOINTS
// format: comma-separated site=kind@N entries, '+' after N to repeat,
// ':duration' after a delay entry for the sleep length.
func ArmFromEnv(spec string) error {
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		name, rest, ok := strings.Cut(field, "=")
		if !ok || name == "" {
			return fmt.Errorf("faultpoint: bad entry %q (want site=kind@N)", field)
		}
		kindStr, when, _ := strings.Cut(rest, "@")
		kind, err := parseKind(kindStr)
		if err != nil {
			return err
		}
		sched := Schedule{Kind: kind, On: 1}
		if when != "" {
			if arg, cut := cutSuffixAny(&when, ":"); cut {
				d, err := time.ParseDuration(arg)
				if err != nil || kind != KindDelay {
					return fmt.Errorf("faultpoint: bad argument %q in %q (only delay takes a duration)", arg, field)
				}
				sched.Delay = d
			}
			if strings.HasSuffix(when, "+") {
				sched.Repeat = true
				when = strings.TrimSuffix(when, "+")
			}
			n, err := strconv.ParseUint(when, 10, 64)
			if err != nil || n == 0 {
				return fmt.Errorf("faultpoint: bad hit count %q in %q", when, field)
			}
			sched.On = n
		}
		Arm(name, sched)
	}
	return nil
}

// cutSuffixAny splits "N+:50ms" into ("N+", "50ms"): the part after the
// separator is returned and removed from *s.
func cutSuffixAny(s *string, sep string) (string, bool) {
	if i := strings.Index(*s, sep); i >= 0 {
		arg := (*s)[i+len(sep):]
		*s = (*s)[:i]
		return arg, true
	}
	return "", false
}
