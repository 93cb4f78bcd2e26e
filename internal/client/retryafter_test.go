package client

import (
	"net/http"
	"testing"
	"time"
)

func TestParseRetryAfterForms(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		name string
		in   string
		want time.Duration
		ok   bool
	}{
		{"empty", "", 0, false},
		{"seconds", "7", 7 * time.Second, true},
		{"seconds zero", "0", 0, true},
		{"seconds padded", "  3 ", 3 * time.Second, true},
		{"seconds negative", "-1", 0, false},
		{"http date future", now.Add(90 * time.Second).Format(http.TimeFormat), 90 * time.Second, true},
		{"http date past", now.Add(-time.Hour).Format(http.TimeFormat), 0, true},
		{"rfc850 date", now.Add(30 * time.Second).Format("Monday, 02-Jan-06 15:04:05 GMT"), 30 * time.Second, true},
		{"garbage", "soon", 0, false},
		{"float", "1.5", 0, false},
	}
	for _, tc := range cases {
		d, ok := parseRetryAfter(tc.in, now)
		if d != tc.want || ok != tc.ok {
			t.Errorf("%s: parseRetryAfter(%q) = (%v, %v), want (%v, %v)", tc.name, tc.in, d, ok, tc.want, tc.ok)
		}
	}
}

func TestBackoffHonorsBothRetryAfterForms(t *testing.T) {
	c, err := New(Config{BaseURL: "http://127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}

	hdr := http.Header{}
	hdr.Set("Retry-After", "2")
	if d := c.backoff(0, hdr); d != 2*time.Second {
		t.Fatalf("integer-seconds hint = %v, want 2s", d)
	}

	// The HTTP-date form is evaluated against the wall clock, so accept a
	// small window below the nominal delta.
	hdr.Set("Retry-After", time.Now().Add(10*time.Second).UTC().Format(http.TimeFormat))
	if d := c.backoff(0, hdr); d < 8*time.Second || d > 10*time.Second {
		t.Fatalf("HTTP-date hint = %v, want ~10s", d)
	}
	if n := c.Metrics().Counter("client/retry_after_honored"); n != 2 {
		t.Fatalf("retry_after_honored = %v, want 2", n)
	}

	// A malformed hint falls back to exponential backoff, not zero.
	hdr.Set("Retry-After", "whenever")
	if d := c.backoff(0, hdr); d < c.cfg.RetryBackoff {
		t.Fatalf("malformed hint backoff = %v, want >= base %v", d, c.cfg.RetryBackoff)
	}
}

func TestBackoffCapsRetryAfterHint(t *testing.T) {
	c, err := New(Config{BaseURL: "http://127.0.0.1:1", RetryAfterMax: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	hdr := http.Header{}
	hdr.Set("Retry-After", "3600") // a bogus hour must not stall the command
	if d := c.backoff(0, hdr); d != 2*time.Second {
		t.Fatalf("capped hint = %v, want 2s", d)
	}
	hdr.Set("Retry-After", time.Now().Add(time.Hour).UTC().Format(http.TimeFormat))
	if d := c.backoff(0, hdr); d != 2*time.Second {
		t.Fatalf("capped HTTP-date hint = %v, want 2s", d)
	}
	if n := c.Metrics().Counter("client/retry_after_capped"); n != 2 {
		t.Fatalf("retry_after_capped = %v, want 2", n)
	}
	if n := c.Metrics().Counter("client/retry_after_honored"); n != 2 {
		t.Fatalf("retry_after_honored = %v, want 2", n)
	}

	// Negative disables the cap per the repo's knob convention.
	u, err := New(Config{BaseURL: "http://127.0.0.1:1", RetryAfterMax: -1})
	if err != nil {
		t.Fatal(err)
	}
	hdr.Set("Retry-After", "3600")
	if d := u.backoff(0, hdr); d != time.Hour {
		t.Fatalf("uncapped hint = %v, want 1h", d)
	}

	// The default cap (30s) applies when the knob is left zero.
	if d := c.backoff(0, nil); d <= 0 {
		t.Fatalf("no-header backoff = %v, want > 0", d)
	}
	def, err := New(Config{BaseURL: "http://127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	hdr.Set("Retry-After", "3600")
	if d := def.backoff(0, hdr); d != 30*time.Second {
		t.Fatalf("default-capped hint = %v, want 30s", d)
	}
}

// TestClientBackoffShiftCap: with no Retry-After hint the client falls
// back to fault.Backoff, whose exponent saturates at 64x base.
func TestClientBackoffShiftCap(t *testing.T) {
	c, err := New(Config{BaseURL: "http://127.0.0.1:1", RetryBackoff: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// base·2^6 = 6.4s is the ceiling; +50% jitter bounds the whole wait
	// at 9.6s for any attempt count, with no overflow to zero/negative.
	for _, attempt := range []int{6, 7, 20, 64, 1000} {
		d := c.backoff(attempt, nil)
		if d <= 0 {
			t.Fatalf("attempt %d: backoff %v <= 0", attempt, d)
		}
		if d > 9600*time.Millisecond {
			t.Fatalf("attempt %d: backoff %v escaped the 64x cap", attempt, d)
		}
		if d < 6400*time.Millisecond {
			t.Fatalf("attempt %d: backoff %v below the saturated base 6.4s", attempt, d)
		}
	}
}
