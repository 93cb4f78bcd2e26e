package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"

	"charonsim"
)

// TestGcstatsHelperProcess re-enters the gcstats command inside the
// test binary for the subprocess exit-code tests. Inert in normal runs.
func TestGcstatsHelperProcess(t *testing.T) {
	if os.Getenv("GCSTATS_HELPER") != "1" {
		t.Skip("not a helper invocation")
	}
	args := []string{}
	if raw := os.Getenv("GCSTATS_ARGS"); raw != "" {
		args = strings.Split(raw, "\x1f")
	}
	os.Exit(Main(args, os.Stdout, os.Stderr))
}

// helperExit runs Main as a real process and returns its exit code —
// the contract scripts and CI see, independent of the Go toolchain's
// flag.ExitOnError behaviour of the day.
func helperExit(t *testing.T, args ...string) int {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=TestGcstatsHelperProcess$")
	cmd.Env = append(os.Environ(), "GCSTATS_HELPER=1",
		"GCSTATS_ARGS="+strings.Join(args, "\x1f"))
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

func TestGcstatsHelpExitsZero(t *testing.T) {
	for _, flag := range []string{"-h", "-help"} {
		var out, errb bytes.Buffer
		if code := Main([]string{flag}, &out, &errb); code != 0 {
			t.Fatalf("gcstats %s exited %d, want 0 (stderr: %s)", flag, code, errb.String())
		}
		if !strings.Contains(errb.String(), "Usage of gcstats") {
			t.Fatalf("gcstats %s printed no usage text:\n%s", flag, errb.String())
		}
	}
	if code := helperExit(t, "-h"); code != 0 {
		t.Fatalf("gcstats -h subprocess exited %d, want 0", code)
	}
}

func TestGcstatsBadFlagExitsTwo(t *testing.T) {
	var out, errb bytes.Buffer
	if code := Main([]string{"-not-a-flag"}, &out, &errb); code != 2 {
		t.Fatalf("bad flag exited %d, want 2", code)
	}
	if code := helperExit(t, "-not-a-flag"); code != 2 {
		t.Fatalf("bad-flag subprocess exited %d, want 2", code)
	}
}

// TestGcstatsBadWorkloadExitsTwo: a setting the charonsim CLI refuses
// with exit 2 — an unknown workload, negative threads, a heap factor past
// the GC log's address limit — and an unknown platform exit 2 here too,
// with the reason on stderr, before anything is simulated.
func TestGcstatsBadWorkloadExitsTwo(t *testing.T) {
	for _, row := range []struct {
		name string
		args []string
		want string
	}{
		{"workload", []string{"-workload", "NOPE"}, `unknown workload "NOPE"`},
		{"threads", []string{"-threads", "-1"}, "Threads must be >= 0"},
		{"platform", []string{"-platform", "nope"}, `unknown platform "nope"`},
		{"factor", []string{"-factor", "10000"}, "4096 MB"},
	} {
		t.Run(row.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := Main(row.args, &out, &errb); code != 2 {
				t.Fatalf("gcstats %v exited %d, want 2 (stderr: %s)", row.args, code, errb.String())
			}
			if !strings.HasPrefix(errb.String(), "gcstats: ") || !strings.Contains(errb.String(), row.want) {
				t.Fatalf("gcstats %v stderr = %q, want a gcstats: line naming %q", row.args, errb.String(), row.want)
			}
			if out.Len() != 0 {
				t.Fatalf("gcstats %v printed a report:\n%s", row.args, out.String())
			}
		})
	}
}

func TestGcstatsRunsOneWorkload(t *testing.T) {
	var out, errb bytes.Buffer
	if code := Main([]string{"-workload", "BS"}, &out, &errb); code != 0 {
		t.Fatalf("gcstats -workload BS exited %d (stderr: %s)", code, errb.String())
	}
	for _, want := range []string{"workload    BS", "platform    charon", "per-primitive time:"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestGcstatsCompareAndPerCollection: -compare prints one speedup row per
// platform, in Platforms() order over a ddr4 base of 1.00x, and its row
// for the headline platform is the headline result; -percollection prints
// one line per counted collection.
func TestGcstatsCompareAndPerCollection(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"-workload", "ALS", "-platform", "charon", "-compare", "-percollection"}
	if code := Main(args, &out, &errb); code != 0 {
		t.Fatalf("gcstats %v exited %d (stderr: %s)", args, code, errb.String())
	}
	var minor, major, perGC int
	var pause string
	var rows [][]string
	inCompare := false
	for _, line := range strings.Split(out.String(), "\n") {
		switch {
		case strings.HasPrefix(line, "collections "):
			if _, err := fmt.Sscanf(line, "collections %d minor + %d major", &minor, &major); err != nil {
				t.Fatalf("collections line %q: %v", line, err)
			}
		case strings.HasPrefix(line, "gc pause "):
			pause = strings.Fields(line)[2]
		case strings.HasPrefix(line, "  ["):
			perGC++
		case line == "speedup over ddr4:":
			inCompare = true
		case inCompare && line != "":
			rows = append(rows, strings.Fields(line))
		}
	}
	if minor+major == 0 || perGC != minor+major {
		t.Fatalf("%d per-collection lines for %d minor + %d major:\n%s", perGC, minor, major, out.String())
	}
	platforms := charonsim.Platforms()
	if len(rows) != len(platforms) {
		t.Fatalf("%d speedup rows for %d platforms:\n%s", len(rows), len(platforms), out.String())
	}
	for i, row := range rows {
		if len(row) != 4 || row[0] != string(platforms[i]) {
			t.Fatalf("speedup row %d = %q, want platform %s", i, row, platforms[i])
		}
		if row[0] == string(charonsim.PlatformDDR4) && row[1] != "1.00x" {
			t.Fatalf("ddr4 row %q, want 1.00x", row)
		}
		if row[0] == string(charonsim.PlatformCharon) && strings.TrimSuffix(row[3], ")") != pause {
			t.Fatalf("charon row %q, want the headline pause %s", row, pause)
		}
	}
}
