// Package fault is the simulator-wide fault-injection layer: a seeded,
// deterministic source of the reliability events a real 3D-stacked memory
// system takes in the field — link CRC errors that force packet
// retransmission, ECC-corrected DRAM reads, hard bank faults that remap to
// a spare row decoder, and failed or thermally-degraded logic-layer
// processing units.
//
// Design constraints, in order:
//
//   - Deterministic and parallelism-independent. Every component draws
//     from its own named Source, a splitmix64 stream seeded from
//     (Config.Seed, component name). A platform replays its GC log
//     single-threaded, so each source is consumed in a fixed order and the
//     same seed reproduces the same fault pattern at any host parallelism.
//   - Zero cost (and zero behavioural change) when disabled. A nil
//     *Injector or *Source short-circuits every method: no random draws
//     happen, so a run with all fault knobs at zero is bit-identical to a
//     build without this package.
//   - Faults perturb timing and routing, never functional GC results. The
//     collector's recorded log is replayed unchanged; the injector only
//     makes the replay slower (retries, ECC stalls, degraded units) or
//     reroutes it (bank remap, unit failover, host fallback).
package fault

import (
	"hash/fnv"
	"time"

	"charonsim/internal/sim"
)

// Config selects what faults to inject. The zero value disables injection
// entirely. Rate is the master knob (the fault sweep's column rate): the
// per-class rates derive from it unless set explicitly, keeping a single
// scalar sweepable while still letting tests pin one fault class at a time.
type Config struct {
	// Rate is the master transient-fault rate in [0, 1): the probability a
	// link packet takes a CRC error and the baseline for the derived
	// per-class rates below.
	Rate float64
	// Seed selects the deterministic fault pattern. Two runs with the same
	// Seed (and the same work) take byte-identical faults; different seeds
	// give statistically independent patterns.
	Seed int64

	// LinkCRCRate is the per-packet transient CRC error probability
	// (default Rate). Each error costs one retransmission slot on the lane
	// plus a bounded exponential backoff.
	LinkCRCRate float64
	// RetryBudget bounds retransmissions per packet (default 8); a packet
	// that exhausts it is delivered anyway and counted as a give-up (a
	// real controller would raise a fatal link error).
	RetryBudget int
	// RetryBackoff is the initial retransmission backoff (default 6 ns);
	// it doubles per retry up to 16x.
	RetryBackoff sim.Time

	// ECCRate is the per-read probability of a correctable DRAM error
	// (default Rate/4); each correction adds ECCLatency to the access.
	ECCRate float64
	// ECCLatency is the correction latency adder (default 30 ns, a
	// detect-correct-replay round through the controller).
	ECCLatency sim.Time

	// HardBankRate is the per-bank probability, drawn once at platform
	// construction, that a bank is hard-faulted and remapped onto its
	// neighbouring healthy bank (default Rate/64).
	HardBankRate float64

	// UnitFailRate is the per-Charon-unit probability, drawn once at
	// construction, that the unit is defective and never serves offloads
	// (default Rate/8).
	UnitFailRate float64
	// UnitDegradeRate is the per-unit probability of thermal throttling
	// (default Rate/4); a degraded unit serves every offload
	// DegradeFactor times slower.
	UnitDegradeRate float64
	// DegradeFactor is the service-time multiplier of degraded units
	// (default 2.0).
	DegradeFactor float64
	// FailAllUnits forces every Charon unit failed regardless of rates:
	// the accelerator is present but dead, and every offload must fall
	// back to the host collector path.
	FailAllUnits bool
}

// Enabled reports whether any fault machinery is active. The zero Config
// is the "no faults" configuration.
func (c Config) Enabled() bool {
	return c.Rate > 0 || c.LinkCRCRate > 0 || c.ECCRate > 0 || c.HardBankRate > 0 ||
		c.UnitFailRate > 0 || c.UnitDegradeRate > 0 || c.FailAllUnits
}

// withDefaults fills the derived per-class knobs.
func (c Config) withDefaults() Config {
	if c.LinkCRCRate == 0 {
		c.LinkCRCRate = c.Rate
	}
	if c.ECCRate == 0 {
		c.ECCRate = c.Rate / 4
	}
	if c.HardBankRate == 0 {
		c.HardBankRate = c.Rate / 64
	}
	if c.UnitFailRate == 0 {
		c.UnitFailRate = c.Rate / 8
	}
	if c.UnitDegradeRate == 0 {
		c.UnitDegradeRate = c.Rate / 4
	}
	if c.DegradeFactor == 0 {
		c.DegradeFactor = 2.0
	}
	if c.RetryBudget == 0 {
		c.RetryBudget = 8
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = 6 * sim.Nanosecond
	}
	if c.ECCLatency == 0 {
		c.ECCLatency = 30 * sim.Nanosecond
	}
	return c
}

// Injector hands out per-component fault sources. A nil *Injector is the
// disabled state; every method short-circuits on it.
type Injector struct {
	cfg Config
}

// New builds an injector, or nil when cfg enables nothing — so call sites
// hold a single pointer whose nil-ness is the "faults off" fast path.
func New(cfg Config) *Injector {
	if !cfg.Enabled() {
		return nil
	}
	return &Injector{cfg: cfg.withDefaults()}
}

// Config returns the defaults-applied configuration. Safe on nil: the
// zero Config (everything disabled) comes back.
func (in *Injector) Config() Config {
	if in == nil {
		return Config{}
	}
	return in.cfg
}

// Source derives the named component's deterministic fault stream. The
// name is part of the seed, so "hmc/cube2/vault7" draws independently from
// "hmc/cube2/vault8" but reproducibly across runs.
func (in *Injector) Source(name string) *Source {
	if in == nil {
		return nil
	}
	return NewSource(name, in.cfg.Seed)
}

// NewSource builds the deterministic stream for a named component: the
// one (name, seed) derivation behind Injector.Source, the netfault TCP
// proxy and the service edge's retry jitter.
func NewSource(name string, seed int64) *Source {
	h := fnv.New64a()
	h.Write([]byte(name))
	return &Source{state: splitmix(h.Sum64() ^ uint64(seed)*0x9e3779b97f4a7c15)}
}

// Source is one component's private splitmix64 stream. A nil *Source never
// fires. Sources are not safe for concurrent use — by design: each
// simulated component is driven by exactly one replay goroutine.
type Source struct {
	state uint64
}

// splitmix is the splitmix64 output function (Steele et al.), the
// recommended seeder/generator for fixed-quality 64-bit streams.
func splitmix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// next advances the stream.
func (s *Source) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	return splitmix(s.state)
}

// Hit draws one Bernoulli trial with probability p. Nil-safe (false), and
// p <= 0 returns false without consuming a draw — so a zero-rate class
// never perturbs the stream consumed by the others.
func (s *Source) Hit(p float64) bool {
	if s == nil || p <= 0 {
		return false
	}
	// 53 uniform mantissa bits, the standard float64-in-[0,1) construction.
	return float64(s.next()>>11)/(1<<53) < p
}

// Frac draws one uniform value in [0, 1) from the stream — the same
// construction Hit compares against p — for callers that need a
// deterministic fraction (backoff jitter, probe scheduling) rather than
// a Bernoulli trial. Nil-safe (0).
func (s *Source) Frac() float64 {
	if s == nil {
		return 0
	}
	return float64(s.next()>>11) / (1 << 53)
}

// Backoff is the service edge's one retry-delay formula: base doubled per
// attempt with the exponent capped at 6 (64x, so absurd attempt counts
// cannot overflow), plus frac/2 of that as jitter. A frac in [0, 1) from
// a Source bounds the wait to [d, 1.5d).
func Backoff(base time.Duration, attempt int, frac float64) time.Duration {
	d := base << uint(min(attempt, 6))
	return d + time.Duration(float64(d)*frac/2)
}
