// Package netfault is the network edge of the fault-injection layer: a
// deterministic, seeded in-process TCP proxy that makes the path between
// a charond client and the server fail the way real networks fail —
// connection resets, accept-time blackholes, added latency, truncated
// response bodies, and slowloris-shaped dribbling reads.
//
// It rides the same splitmix64 fault.Source machinery the simulator uses
// for HMC links and the persistence stack uses for disks: every accepted
// connection draws its fault plan from one seeded stream in accept
// order, so a given (seed, connection sequence) reproduces the same
// fault pattern in every run. The determinism contract is per
// connection, not per HTTP exchange — the proxy never parses HTTP; a
// keep-alive connection carrying many exchanges takes one plan.
//
// Design constraints, in order (mirroring package fault):
//
//   - Deterministic. Fault decisions are drawn under a mutex at accept
//     time from a single seeded stream; the k-th accepted connection
//     takes the k-th plan regardless of scheduling.
//   - Zero-cost passthrough when nothing is enabled: no draws, no
//     timers, a plain bidirectional copy.
//   - Recoverable. SetDisabled(true) pauses injection at runtime (the
//     recovery phase of chaos tests); Close tears everything down.
//   - Accountable. Every injected fault bumps a per-class counter and
//     lands in the fault log, so a chaos gate can reconcile client-side
//     retry and transport-error counters against what was actually
//     injected.
package netfault

import (
	"fmt"
	"io"
	"math"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"charonsim/internal/fault"
)

// Fault classes, in draw order. The draw order is part of the
// determinism contract: changing it changes which connection takes
// which fault for a given seed.
const (
	ClassBlackhole = "blackhole" // accepted, held silent, then reset
	ClassReset     = "reset"     // RST after the first client bytes
	ClassDelay     = "delay"     // added latency before each direction's first byte
	ClassTruncate  = "truncate"  // server→client stream cut after TruncateAfter bytes
	ClassSlowRead  = "slowread"  // client→server header bytes dribbled slowly
)

var classes = []string{ClassBlackhole, ClassReset, ClassDelay, ClassTruncate, ClassSlowRead}

// Config selects which network fault classes the proxy injects and how
// often. The zero value disables injection entirely (pure passthrough).
// Rate is the master knob; per-class rates derive from it unless set
// explicitly, mirroring fault.Config.
type Config struct {
	// Rate is the master per-connection fault probability in [0, 1] and
	// the baseline for the derived per-class rates below. 1 makes every
	// class fire on every connection — useful for pinning error paths.
	Rate float64
	// Seed selects the deterministic fault pattern, like fault.Config.Seed.
	Seed int64

	// BlackholeRate is the probability a connection is accepted and then
	// held with no bytes exchanged for BlackholeHold, then reset — the
	// shape of a dead middlebox (default Rate/2).
	BlackholeRate float64
	// ResetRate is the probability a connection is RST both ways right
	// after the first client bytes arrive (default Rate).
	ResetRate float64
	// DelayRate is the probability Delay is added before the first byte
	// of each direction (default Rate).
	DelayRate float64
	// TruncateRate is the probability the server→client stream is cut
	// (RST) after TruncateAfter bytes — a truncated response body
	// (default Rate).
	TruncateRate float64
	// SlowReadRate is the probability the first SlowBytes of the
	// client→server stream are dribbled SlowChunk bytes per SlowEvery —
	// a slowloris-shaped request that stresses the server's header
	// timeouts (default Rate/2).
	SlowReadRate float64

	// Delay is the per-direction first-byte latency adder (default 75ms).
	Delay time.Duration
	// BlackholeHold is how long a blackholed connection is held silent
	// before the reset (default 750ms) — long enough for a client to
	// notice, short enough for chaos runs to converge.
	BlackholeHold time.Duration
	// TruncateAfter is how many server→client bytes pass before the cut
	// (default 256 — inside the headers or the first body chunk of any
	// charond response, so the truncation is always client-visible).
	TruncateAfter int
	// SlowBytes / SlowChunk / SlowEvery shape the slow-read dribble:
	// the first SlowBytes client bytes are forwarded SlowChunk at a time
	// with SlowEvery between writes (defaults 48, 1, 4ms).
	SlowBytes int
	SlowChunk int
	SlowEvery time.Duration
}

// Enabled reports whether any fault class can fire.
func (c Config) Enabled() bool {
	return c.Rate > 0 || c.BlackholeRate > 0 || c.ResetRate > 0 ||
		c.DelayRate > 0 || c.TruncateRate > 0 || c.SlowReadRate > 0
}

// Validate rejects rates outside [0, 1], negative seeds, and negative
// shape knobs.
func (c Config) Validate() error {
	rates := []struct {
		name string
		v    float64
	}{
		{"Rate", c.Rate}, {"BlackholeRate", c.BlackholeRate}, {"ResetRate", c.ResetRate},
		{"DelayRate", c.DelayRate}, {"TruncateRate", c.TruncateRate}, {"SlowReadRate", c.SlowReadRate},
	}
	for _, r := range rates {
		if r.v < 0 || r.v > 1 || math.IsNaN(r.v) {
			return fmt.Errorf("netfault: %s must be in [0, 1], got %v", r.name, r.v)
		}
	}
	if c.Seed < 0 {
		return fmt.Errorf("netfault: Seed must be >= 0, got %d", c.Seed)
	}
	if c.Delay < 0 || c.BlackholeHold < 0 || c.SlowEvery < 0 {
		return fmt.Errorf("netfault: durations must be >= 0")
	}
	if c.TruncateAfter < 0 || c.SlowBytes < 0 || c.SlowChunk < 0 {
		return fmt.Errorf("netfault: byte counts must be >= 0")
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.BlackholeRate == 0 {
		c.BlackholeRate = c.Rate / 2
	}
	if c.ResetRate == 0 {
		c.ResetRate = c.Rate
	}
	if c.DelayRate == 0 {
		c.DelayRate = c.Rate
	}
	if c.TruncateRate == 0 {
		c.TruncateRate = c.Rate
	}
	if c.SlowReadRate == 0 {
		c.SlowReadRate = c.Rate / 2
	}
	if c.Delay == 0 {
		c.Delay = 75 * time.Millisecond
	}
	if c.BlackholeHold == 0 {
		c.BlackholeHold = 750 * time.Millisecond
	}
	if c.TruncateAfter == 0 {
		c.TruncateAfter = 256
	}
	if c.SlowBytes == 0 {
		c.SlowBytes = 48
	}
	if c.SlowChunk == 0 {
		c.SlowChunk = 1
	}
	if c.SlowEvery == 0 {
		c.SlowEvery = 4 * time.Millisecond
	}
	return c
}

// Event is one injected fault, for the fault log.
type Event struct {
	Conn  uint64 // accept sequence number of the connection (1-based)
	Class string
}

// plan is the fault decision for one accepted connection. All draws
// happen at accept time so the stream is consumed in accept order.
type plan struct {
	blackhole, reset, delay, truncate, slow bool
}

func (p plan) any() bool { return p.blackhole || p.reset || p.delay || p.truncate || p.slow }

// Proxy is a deterministic fault-injecting TCP forwarder. Create with
// New, point clients at Addr(), stop with Close.
type Proxy struct {
	cfg    Config
	target string
	ln     net.Listener

	mu  sync.Mutex // guards src (draws) and the fault log
	src *fault.Source
	log []Event

	disabled atomic.Bool
	injected atomic.Uint64
	counts   map[string]*atomic.Uint64

	closed chan struct{}
	wg     sync.WaitGroup
}

// New starts a proxy on listenAddr (use "127.0.0.1:0" for an ephemeral
// port) forwarding to target.
func New(listenAddr, target string, cfg Config) (*Proxy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("netfault: listen: %w", err)
	}
	p := &Proxy{
		cfg:    cfg.withDefaults(),
		target: target,
		ln:     ln,
		closed: make(chan struct{}),
		counts: map[string]*atomic.Uint64{},
	}
	for _, c := range classes {
		p.counts[c] = &atomic.Uint64{}
	}
	if cfg.Enabled() {
		p.src = fault.NewSource("netfault/proxy", cfg.Seed)
	}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address (host:port).
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// SetDisabled pauses (true) or resumes (false) injection at runtime;
// in-flight connections keep their already-drawn plans. The recovery
// phase of chaos runs flips it. Draws still advance the stream while
// disabled, preserving the accept-order determinism contract.
func (p *Proxy) SetDisabled(v bool) { p.disabled.Store(v) }

// Injected returns the total number of faults injected so far.
func (p *Proxy) Injected() uint64 { return p.injected.Load() }

// Counts returns a per-class snapshot of injected-fault counters.
func (p *Proxy) Counts() map[string]uint64 {
	out := make(map[string]uint64, len(classes))
	for _, c := range classes {
		out[c] = p.counts[c].Load()
	}
	return out
}

// Log returns a copy of the fault log in injection order.
func (p *Proxy) Log() []Event {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Event(nil), p.log...)
}

// Close stops accepting, severs every live connection, and waits for
// the connection goroutines to unwind.
func (p *Proxy) Close() error {
	select {
	case <-p.closed:
	default:
		close(p.closed)
	}
	err := p.ln.Close()
	p.wg.Wait()
	return err
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	var seq uint64
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		seq++
		pl := p.drawPlan()
		p.wg.Add(1)
		go func(c net.Conn, n uint64, pl plan) {
			defer p.wg.Done()
			p.handle(c, n, pl)
		}(conn, seq, pl)
	}
}

// drawPlan consumes one decision per fault class from the seeded stream,
// in the fixed class order. Disabled mode draws but discards, so the
// k-th connection sees the k-th plan whether or not a recovery phase
// paused injection in between.
func (p *Proxy) drawPlan() plan {
	if p.src == nil {
		return plan{}
	}
	p.mu.Lock()
	pl := plan{
		blackhole: p.src.Hit(p.cfg.BlackholeRate),
		reset:     p.src.Hit(p.cfg.ResetRate),
		delay:     p.src.Hit(p.cfg.DelayRate),
		truncate:  p.src.Hit(p.cfg.TruncateRate),
		slow:      p.src.Hit(p.cfg.SlowReadRate),
	}
	p.mu.Unlock()
	if p.disabled.Load() {
		return plan{}
	}
	return pl
}

// note records one injected fault: counters plus the fault log.
func (p *Proxy) note(conn uint64, class string) {
	p.injected.Add(1)
	p.counts[class].Add(1)
	p.mu.Lock()
	p.log = append(p.log, Event{Conn: conn, Class: class})
	p.mu.Unlock()
}

// hardClose resets a TCP connection (linger 0 ⇒ RST) rather than
// FIN-closing it, so the peer sees ECONNRESET — the fault being modelled
// — instead of a clean end-of-stream it might misread as a complete
// response.
func hardClose(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetLinger(0)
	}
	_ = c.Close()
}

// sleep waits d or until the proxy is closed.
func (p *Proxy) sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-p.closed:
	}
}

func (p *Proxy) handle(client net.Conn, seq uint64, pl plan) {
	// Blackhole: the connection was accepted, and that is all that will
	// ever happen on it.
	if pl.blackhole {
		p.note(seq, ClassBlackhole)
		p.sleep(p.cfg.BlackholeHold)
		hardClose(client)
		return
	}

	server, err := net.Dial("tcp", p.target)
	if err != nil {
		hardClose(client)
		return
	}

	// Reset: wait for the client to commit (first bytes of its request),
	// then RST both sides — the request may or may not have reached the
	// server, exactly the ambiguity resilient clients must handle.
	if pl.reset {
		buf := make([]byte, 4096)
		if n, err := client.Read(buf); err == nil && n > 0 {
			_, _ = server.Write(buf[:n])
		}
		p.note(seq, ClassReset)
		hardClose(client)
		hardClose(server)
		return
	}

	if pl.delay {
		p.note(seq, ClassDelay)
	}
	if pl.truncate {
		p.note(seq, ClassTruncate)
	}
	if pl.slow {
		p.note(seq, ClassSlowRead)
	}

	var wg sync.WaitGroup
	wg.Add(2)
	// client → server: optional first-byte delay, optional slowloris
	// dribble of the leading bytes.
	go func() {
		defer wg.Done()
		p.pipeUp(client, server, pl)
	}()
	// server → client: optional first-byte delay, optional truncation.
	go func() {
		defer wg.Done()
		p.pipeDown(server, client, pl, seq)
	}()
	// Sever live connections when the proxy closes so Close never hangs
	// behind an idle keep-alive.
	done := make(chan struct{})
	go func() {
		select {
		case <-p.closed:
			hardClose(client)
			hardClose(server)
		case <-done:
		}
	}()
	wg.Wait()
	close(done)
	client.Close()
	server.Close()
}

// pipeUp forwards client bytes to the server, applying the delay and
// slow-read plans.
func (p *Proxy) pipeUp(client, server net.Conn, pl plan) {
	if pl.delay {
		p.sleep(p.cfg.Delay)
	}
	if pl.slow {
		buf := make([]byte, p.cfg.SlowChunk)
		sent := 0
		for sent < p.cfg.SlowBytes {
			n, err := client.Read(buf)
			if n > 0 {
				if _, werr := server.Write(buf[:n]); werr != nil {
					return
				}
				sent += n
				p.sleep(p.cfg.SlowEvery)
			}
			if err != nil {
				closeWrite(server)
				return
			}
		}
	}
	_, _ = io.Copy(server, client)
	closeWrite(server)
}

// pipeDown forwards server bytes to the client, applying the delay and
// truncation plans.
func (p *Proxy) pipeDown(server, client net.Conn, pl plan, seq uint64) {
	if pl.delay {
		p.sleep(p.cfg.Delay)
	}
	if pl.truncate {
		// Forward at most TruncateAfter bytes, then RST both ways: the
		// client holds a torn response it must detect (Content-Length
		// mismatch or a broken chunk stream).
		_, _ = io.CopyN(client, server, int64(p.cfg.TruncateAfter))
		hardClose(client)
		hardClose(server)
		return
	}
	_, _ = io.Copy(client, server)
	closeWrite(client)
}

// closeWrite half-closes the write side so the peer sees EOF while its
// own writes still drain — the clean-passthrough shutdown order.
func closeWrite(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.CloseWrite()
		return
	}
	_ = c.Close()
}

// ClassNames returns the fault classes in draw order, for docs and logs.
func ClassNames() []string {
	out := append([]string(nil), classes...)
	sort.Strings(out)
	return out
}
