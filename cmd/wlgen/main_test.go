package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestWlgenHelperProcess re-enters the wlgen command inside the test
// binary for the subprocess exit-code tests. Inert in normal runs.
func TestWlgenHelperProcess(t *testing.T) {
	if os.Getenv("WLGEN_HELPER") != "1" {
		t.Skip("not a helper invocation")
	}
	args := []string{}
	if raw := os.Getenv("WLGEN_ARGS"); raw != "" {
		args = strings.Split(raw, "\x1f")
	}
	os.Exit(Main(args, os.Stdout, os.Stderr))
}

func helperExit(t *testing.T, args ...string) int {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=TestWlgenHelperProcess$")
	cmd.Env = append(os.Environ(), "WLGEN_HELPER=1",
		"WLGEN_ARGS="+strings.Join(args, "\x1f"))
	err := cmd.Run()
	if err == nil {
		return 0
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode()
	}
	t.Fatalf("helper: %v", err)
	return -1
}

func TestWlgenHelpExitsZero(t *testing.T) {
	for _, flag := range []string{"-h", "-help"} {
		var out, errb bytes.Buffer
		if code := Main([]string{flag}, &out, &errb); code != 0 {
			t.Fatalf("wlgen %s exited %d, want 0 (stderr: %s)", flag, code, errb.String())
		}
		if !strings.Contains(errb.String(), "Usage of wlgen") {
			t.Fatalf("wlgen %s printed no usage text:\n%s", flag, errb.String())
		}
	}
	if code := helperExit(t, "-h"); code != 0 {
		t.Fatalf("wlgen -h subprocess exited %d, want 0", code)
	}
}

func TestWlgenBadFlagExitsTwo(t *testing.T) {
	var out, errb bytes.Buffer
	if code := Main([]string{"-not-a-flag"}, &out, &errb); code != 2 {
		t.Fatalf("bad flag exited %d, want 2", code)
	}
	if code := helperExit(t, "-not-a-flag"); code != 2 {
		t.Fatalf("bad-flag subprocess exited %d, want 2", code)
	}
}

// TestWlgenBadWorkloadExitsTwo: a workload or heap factor the charonsim
// CLI refuses with exit 2 exits 2 here too, with the reason on stderr,
// before any heap is built.
func TestWlgenBadWorkloadExitsTwo(t *testing.T) {
	for _, row := range []struct {
		name string
		args []string
		want string
	}{
		{"workload", []string{"-workload", "NOPE"}, `unknown workload "NOPE"`},
		{"factor", []string{"-factor", "10000"}, "4096 MB"},
	} {
		t.Run(row.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := Main(row.args, &out, &errb); code != 2 {
				t.Fatalf("wlgen %v exited %d, want 2 (stderr: %s)", row.args, code, errb.String())
			}
			if !strings.HasPrefix(errb.String(), "wlgen: ") || !strings.Contains(errb.String(), row.want) {
				t.Fatalf("wlgen %v stderr = %q, want a wlgen: line naming %q", row.args, errb.String(), row.want)
			}
		})
	}
}

// TestWlgenFactorZeroSelectsTheDefault: -factor 0 passes the charonsim
// checks, where it selects the default factor, so wlgen runs at 1.5
// rather than panicking on an empty heap.
func TestWlgenFactorZeroSelectsTheDefault(t *testing.T) {
	var out, errb bytes.Buffer
	if code := Main([]string{"-workload", "BS", "-factor", "0"}, &out, &errb); code != 0 || !strings.Contains(out.String(), "(1.50x min)") {
		t.Fatalf("wlgen -factor 0 exited %d (stderr: %s), output:\n%s", code, errb.String(), out.String())
	}
}

func TestWlgenJSONLogIsParseable(t *testing.T) {
	var out, errb bytes.Buffer
	if code := Main([]string{"-workload", "BS", "-json"}, &out, &errb); code != 0 {
		t.Fatalf("wlgen -json exited %d (stderr: %s)", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("wlgen -json produced no log lines")
	}
	var v map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &v); err != nil {
		t.Fatalf("first -json line is not JSON: %v\n%s", err, lines[0])
	}
}
