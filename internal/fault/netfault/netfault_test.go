package netfault

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// echoServer accepts connections and echoes every byte back until EOF.
func echoServer(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				_, _ = io.Copy(c, c)
			}(c)
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return ln
}

func newProxy(t *testing.T, target string, cfg Config) *Proxy {
	t.Helper()
	p, err := New("127.0.0.1:0", target, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Rate: -0.1},
		{Rate: 1.1},
		{ResetRate: 2},
		{Seed: -1, Rate: 0.5},
		{Rate: 0.5, Delay: -time.Second},
		{Rate: 0.5, TruncateAfter: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad[%d] %+v validated", i, c)
		}
	}
	good := []Config{{}, {Rate: 0.5, Seed: 7}, {TruncateRate: 1}}
	for i, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("good[%d]: %v", i, err)
		}
	}
}

// TestPassthroughByteFidelity: with every knob zero the proxy is a plain
// pipe — bytes through it are identical in both directions and no fault
// is ever drawn or injected.
func TestPassthroughByteFidelity(t *testing.T) {
	ln := echoServer(t)
	p := newProxy(t, ln.Addr().String(), Config{})

	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	payload := bytes.Repeat([]byte("charon-netfault-passthrough/"), 1024) // ~28KB
	go func() {
		conn.Write(payload)
		conn.(*net.TCPConn).CloseWrite()
	}()
	got, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("echo mismatch: got %d bytes, want %d", len(got), len(payload))
	}
	if n := p.Injected(); n != 0 {
		t.Fatalf("passthrough injected %d faults", n)
	}
}

// TestDeterministicPlans: two proxies with the same seed, driven by the
// same sequential connection pattern, inject the identical fault log.
// A different seed gives a different pattern.
func TestDeterministicPlans(t *testing.T) {
	run := func(seed int64) []Event {
		ln := echoServer(t)
		p := newProxy(t, ln.Addr().String(), Config{
			Rate: 0.4, Seed: seed,
			Delay: time.Millisecond, BlackholeHold: 10 * time.Millisecond,
			SlowEvery: time.Microsecond,
		})
		for i := 0; i < 40; i++ {
			conn, err := net.Dial("tcp", p.Addr())
			if err != nil {
				t.Fatal(err)
			}
			conn.SetDeadline(time.Now().Add(2 * time.Second))
			fmt.Fprintf(conn, "ping-%d", i)
			conn.(*net.TCPConn).CloseWrite()
			_, _ = io.ReadAll(conn) // outcome varies by plan; only the log matters
			conn.Close()
		}
		p.Close()
		return p.Log()
	}

	a, b := run(42), run(42)
	if len(a) == 0 {
		t.Fatal("seed 42 at rate 0.4 injected nothing over 40 connections")
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same seed diverged:\n a=%v\n b=%v", a, b)
	}
	c := run(43)
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatalf("seeds 42 and 43 produced the identical fault log %v", a)
	}
}

// TestResetSurfacesError: a reset-planned connection errors on the
// client side instead of returning a clean EOF.
func TestResetSurfacesError(t *testing.T) {
	ln := echoServer(t)
	p := newProxy(t, ln.Addr().String(), Config{ResetRate: 1, Seed: 1})

	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	fmt.Fprint(conn, "hello")
	if _, err := io.ReadAll(conn); err == nil {
		t.Fatal("reset connection read cleanly")
	}
	if got := p.Counts()[ClassReset]; got != 1 {
		t.Fatalf("reset count = %d, want 1", got)
	}
}

// TestTruncateCutsStream: the client receives at most TruncateAfter
// bytes of a larger response and then an error — never a clean EOF that
// could masquerade as a complete body.
func TestTruncateCutsStream(t *testing.T) {
	ln := echoServer(t)
	p := newProxy(t, ln.Addr().String(), Config{TruncateRate: 1, Seed: 1, TruncateAfter: 128})

	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	payload := bytes.Repeat([]byte("x"), 64<<10)
	go func() {
		conn.Write(payload)
		conn.(*net.TCPConn).CloseWrite()
	}()
	got, err := io.ReadAll(conn)
	if err == nil {
		t.Fatalf("truncated stream ended cleanly after %d bytes", len(got))
	}
	if len(got) > 128 {
		t.Fatalf("received %d bytes past the 128-byte truncation point", len(got))
	}
}

// TestDelayAddsLatency: a delay-planned round trip takes at least the
// configured Delay.
func TestDelayAddsLatency(t *testing.T) {
	ln := echoServer(t)
	p := newProxy(t, ln.Addr().String(), Config{DelayRate: 1, Seed: 1, Delay: 120 * time.Millisecond})

	start := time.Now()
	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	fmt.Fprint(conn, "ping")
	conn.(*net.TCPConn).CloseWrite()
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("read: %v", err)
	}
	if d := time.Since(start); d < 120*time.Millisecond {
		t.Fatalf("round trip took %v, want >= 120ms of injected delay", d)
	}
}

// TestBlackholeHoldsThenResets: nothing comes back, the hold is
// honoured, and the connection ends in an error.
func TestBlackholeHoldsThenResets(t *testing.T) {
	ln := echoServer(t)
	p := newProxy(t, ln.Addr().String(), Config{BlackholeRate: 1, Seed: 1, BlackholeHold: 150 * time.Millisecond})

	start := time.Now()
	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	fmt.Fprint(conn, "anyone home")
	n, rerr := conn.Read(make([]byte, 1))
	if n != 0 || rerr == nil {
		t.Fatalf("blackhole returned data (n=%d err=%v)", n, rerr)
	}
	if d := time.Since(start); d < 150*time.Millisecond {
		t.Fatalf("blackhole released after %v, want >= 150ms hold", d)
	}
}

// TestSetDisabledPassthrough: with injection paused, a rate-1 proxy is a
// clean pipe; re-enabling resumes injection.
func TestSetDisabledPassthrough(t *testing.T) {
	ln := echoServer(t)
	p := newProxy(t, ln.Addr().String(), Config{ResetRate: 1, Seed: 1})
	p.SetDisabled(true)

	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	fmt.Fprint(conn, "clean")
	conn.(*net.TCPConn).CloseWrite()
	got, err := io.ReadAll(conn)
	if err != nil || string(got) != "clean" {
		t.Fatalf("disabled proxy perturbed the stream: %q, %v", got, err)
	}
	conn.Close()
	if p.Injected() != 0 {
		t.Fatalf("disabled proxy injected %d faults", p.Injected())
	}

	p.SetDisabled(false)
	conn2, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	conn2.SetDeadline(time.Now().Add(5 * time.Second))
	fmt.Fprint(conn2, "dirty")
	if _, err := io.ReadAll(conn2); err == nil {
		t.Fatal("re-enabled rate-1 reset proxy passed a connection cleanly")
	}
}

// TestHTTPThroughFaultyProxyEventuallySucceeds: a plain retrying HTTP
// client completes a GET through a moderately faulty proxy, and the
// response body is byte-identical to the direct answer.
func TestHTTPThroughFaultyProxyEventuallySucceeds(t *testing.T) {
	const body = "charond says hello\n"
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, body)
	}))
	defer hs.Close()
	target := strings.TrimPrefix(hs.URL, "http://")

	p := newProxy(t, target, Config{
		Rate: 0.35, Seed: 7,
		Delay: 5 * time.Millisecond, BlackholeHold: 50 * time.Millisecond,
		SlowEvery: time.Millisecond,
	})
	client := &http.Client{
		Timeout:   2 * time.Second,
		Transport: &http.Transport{DisableKeepAlives: true}, // one exchange per connection: every request redraws
	}
	var got string
	ok := false
	for attempt := 0; attempt < 50 && !ok; attempt++ {
		resp, err := client.Get("http://" + p.Addr() + "/")
		if err != nil {
			continue
		}
		raw, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr == nil && resp.StatusCode == http.StatusOK {
			got, ok = string(raw), true
		}
	}
	if !ok {
		t.Fatalf("no successful GET in 50 attempts (injected=%d %v)", p.Injected(), p.Counts())
	}
	if got != body {
		t.Fatalf("body through proxy = %q, want %q", got, body)
	}
	if p.Injected() == 0 {
		t.Fatal("rate-0.35 proxy injected nothing over the attempt storm")
	}
}
