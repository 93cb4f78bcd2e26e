package cli

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"charonsim/internal/checkpoint"
)

// TestHelperProcess re-enters the CLI inside the test binary so the
// signal tests can exercise a real process receiving a real SIGINT.
// Guarded by an env var: it is inert during a normal test run.
func TestHelperProcess(t *testing.T) {
	if os.Getenv("CHARONSIM_CLI_HELPER") != "1" {
		t.Skip("not a helper invocation")
	}
	args := strings.Split(os.Getenv("CHARONSIM_CLI_ARGS"), "\x1f")
	os.Exit(Run(args, os.Stdout, os.Stderr))
}

func TestExitCodes(t *testing.T) {
	var out, errb bytes.Buffer
	if code := Run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("-list exited %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "fig12") {
		t.Fatalf("-list output missing experiments:\n%s", out.String())
	}

	out.Reset()
	errb.Reset()
	if code := Run([]string{"-threads", "-3"}, &out, &errb); code != 2 {
		t.Fatalf("invalid config exited %d, want 2 (stderr: %s)", code, errb.String())
	}

	// A heap factor past the GC log's address limit is a validation error
	// that names the limit, not a fatal out-of-memory error once the
	// heap is built (whose exit code is also 2). table4 builds no heap,
	// so the row allocates nothing even where validation lets it through.
	out.Reset()
	errb.Reset()
	if code := Run([]string{"-exp", "table4", "-workloads", "BS", "-factor", "10000"}, &out, &errb); code != 2 ||
		!strings.Contains(errb.String(), "4096 MB address limit") {
		t.Fatalf("-factor 10000 exited %d, want 2 with the address limit named (stderr: %s)", code, errb.String())
	}

	out.Reset()
	errb.Reset()
	if code := Run([]string{"-exp", "nope"}, &out, &errb); code != 1 {
		t.Fatalf("unknown experiment exited %d, want 1", code)
	}

	out.Reset()
	errb.Reset()
	if code := Run([]string{"-not-a-flag"}, &out, &errb); code != 2 {
		t.Fatalf("bad flag exited %d, want 2", code)
	}

	out.Reset()
	errb.Reset()
	if code := Run([]string{"-offload-deadline", "2us", "-exp", "table4"}, &out, &errb); code != 2 {
		t.Fatalf("removed -offload-deadline flag exited %d, want 2", code)
	}

	for _, removed := range [][]string{{"-fault-rate", "0.01"}, {"-fault-seed", "7"}} {
		out.Reset()
		errb.Reset()
		if code := Run(append(removed, "-exp", "table4"), &out, &errb); code != 2 {
			t.Fatalf("removed %s flag exited %d, want 2", removed[0], code)
		}
	}

	out.Reset()
	errb.Reset()
	if code := Run([]string{"-exp", "table4"}, &out, &errb); code != 0 {
		t.Fatalf("table4 exited %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "== table4") {
		t.Fatalf("table4 output missing report header:\n%s", out.String())
	}
}

// TestCheckpointRejectsObservability: a checkpoint directory conflicts
// with a trace (cached units simulate nothing), but not with metrics —
// each entry stores its unit's snapshot, so a run served wholly from the
// checkpoint writes the same metrics file as the run that filled it.
func TestCheckpointRejectsObservability(t *testing.T) {
	var out, errb bytes.Buffer
	dir := t.TempDir()
	code := Run([]string{"-exp", "table4", "-checkpoint-dir", t.TempDir(),
		"-metrics", filepath.Join(dir, "m.json"), "-trace", filepath.Join(dir, "t.json")}, &out, &errb)
	if code != 2 || !strings.Contains(errb.String(), "CheckpointDir") {
		t.Fatalf("checkpoint+trace exited %d, want 2 naming CheckpointDir (stderr: %s)", code, errb.String())
	}

	if testing.Short() {
		t.Skip("checkpoint+metrics runs a simulation")
	}
	ckpt := t.TempDir()
	var snaps [2][]byte
	var entries [2]os.FileInfo
	for i := range snaps {
		path := filepath.Join(dir, fmt.Sprintf("m%d.json", i))
		out.Reset()
		errb.Reset()
		if code := Run([]string{"-exp", "fig4a", "-workloads", "ALS", "-checkpoint-dir", ckpt,
			"-metrics", path}, &out, &errb); code != 0 {
			t.Fatalf("run %d: checkpoint+metrics exited %d: %s", i, code, errb.String())
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		snaps[i] = b
		ents, _ := filepath.Glob(filepath.Join(ckpt, "*.ckpt.json"))
		if len(ents) != 1 {
			t.Fatalf("run %d: checkpoint holds %d units, want the one fig4a replays", i, len(ents))
		}
		if entries[i], err = os.Stat(ents[0]); err != nil {
			t.Fatal(err)
		}
	}
	// A re-simulated unit is rewritten by rename, which replaces the file.
	if !os.SameFile(entries[0], entries[1]) {
		t.Fatal("second run re-simulated its unit instead of hitting the checkpoint")
	}
	if !bytes.Equal(snaps[0], snaps[1]) {
		t.Fatalf("metrics of the all-hits run differ from the run that filled the checkpoint:\n%s\nvs\n%s", snaps[0], snaps[1])
	}
	if !bytes.Contains(snaps[1], []byte("ddr4/cpu/core0/busy_ps")) {
		t.Fatalf("all-hits run wrote no counters:\n%s", snaps[1])
	}
}

// TestMetricsCSVExtensionAnyCase: one rule decides whether a path is CSV,
// in any letter case. Config.Validate already refuses a "t.CSV" trace as
// a CSV path, so "-metrics out.CSV" must write CSV, not JSON.
func TestMetricsCSVExtensionAnyCase(t *testing.T) {
	var out, errb bytes.Buffer
	path := filepath.Join(t.TempDir(), "out.CSV")
	if code := Run([]string{"-exp", "table4", "-metrics", path}, &out, &errb); code != 0 {
		t.Fatalf("table4 -metrics out.CSV exited %d: %s", code, errb.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(raw), "name,kind,count,sum,min,mean,max\n") {
		t.Fatalf("-metrics out.CSV wrote no CSV header:\n%s", raw)
	}
}

// reportText strips the trailing wall-clock line, the only
// non-deterministic part of the CLI output.
func reportText(s string) string {
	lines := strings.Split(s, "\n")
	var keep []string
	for _, l := range lines {
		if strings.HasPrefix(l, "(") && strings.Contains(l, "experiment(s) in") {
			continue
		}
		keep = append(keep, l)
	}
	return strings.Join(keep, "\n")
}

// TestSigintResumesByteIdentical is the end-to-end crash-safety test:
// run a sweep in a subprocess with checkpointing on, SIGINT it once the
// first checkpoint entry lands, and assert (1) the clean partial exit
// code, (2) an uncorrupted checkpoint directory, and (3) that resuming
// from it produces output byte-identical to an uninterrupted run.
func TestSigintResumesByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess sweep is slow")
	}
	ckptDir := t.TempDir()
	// Serial on purpose: dispatch stops at the first ctx check, so an
	// early signal is guaranteed to leave undone work behind to resume.
	args := []string{"-exp", "fig2", "-workloads", "BS", "-parallel", "1",
		"-checkpoint-dir", ckptDir}

	cmd := exec.Command(os.Args[0], "-test.run=TestHelperProcess$")
	cmd.Env = append(os.Environ(), "CHARONSIM_CLI_HELPER=1",
		"CHARONSIM_CLI_ARGS="+strings.Join(args, "\x1f"))
	var sub bytes.Buffer
	cmd.Stdout = &sub
	cmd.Stderr = &sub
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	killer := time.AfterFunc(2*time.Minute, func() { cmd.Process.Kill() })
	defer killer.Stop()

	// Wait for the first persisted unit, then interrupt.
	deadline := time.Now().Add(90 * time.Second)
	for {
		ents, _ := filepath.Glob(filepath.Join(ckptDir, "*.ckpt.json"))
		if len(ents) > 0 {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("no checkpoint entry appeared; subprocess output:\n%s", sub.String())
		}
		time.Sleep(25 * time.Millisecond)
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	code := cmd.ProcessState.ExitCode()
	if code != 3 {
		t.Fatalf("interrupted sweep exited %d (err %v), want 3; output:\n%s", code, err, sub.String())
	}
	if !strings.Contains(sub.String(), "interrupted") {
		t.Fatalf("no partial-sweep report on stderr:\n%s", sub.String())
	}

	// The interrupted directory must hold only complete, valid entries.
	st, err := checkpoint.Open(ckptDir)
	if err != nil {
		t.Fatal(err)
	}
	valid, discarded, err := st.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if valid == 0 || discarded != 0 {
		t.Fatalf("Verify after SIGINT = %d valid, %d discarded; want >0, 0", valid, discarded)
	}

	// Resume in-process over the same directory: must finish cleanly...
	var resumed, errb bytes.Buffer
	if code := Run(args, &resumed, &errb); code != 0 {
		t.Fatalf("resume exited %d: %s", code, errb.String())
	}
	// ...and match an uninterrupted run byte for byte.
	golden := bytes.Buffer{}
	goldenArgs := []string{"-exp", "fig2", "-workloads", "BS", "-parallel", "1",
		"-checkpoint-dir", t.TempDir()}
	if code := Run(goldenArgs, &golden, &errb); code != 0 {
		t.Fatalf("golden run exited %d: %s", code, errb.String())
	}
	if got, want := reportText(resumed.String()), reportText(golden.String()); got != want {
		t.Fatalf("resumed output diverged from uninterrupted run:\n--- resumed ---\n%s\n--- golden ---\n%s", got, want)
	}
}

// TestHelpExitsZero: -h/-help ask for the usage text; flag.ErrHelp must
// map to exit 0, not the configuration-error code 2.
func TestHelpExitsZero(t *testing.T) {
	for _, flagName := range []string{"-h", "-help", "--help"} {
		var out, errb bytes.Buffer
		if code := Run([]string{flagName}, &out, &errb); code != 0 {
			t.Errorf("%s exited %d, want 0 (stderr: %s)", flagName, code, errb.String())
		}
		if !strings.Contains(errb.String(), "Usage of charonsim") {
			t.Errorf("%s printed no usage text:\n%s", flagName, errb.String())
		}
	}
}

// TestHelpExitsZeroSubprocess runs -h through a real process so the exit
// status the shell sees — not just Run's return value — is pinned.
func TestHelpExitsZeroSubprocess(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-test.run=TestHelperProcess$")
	cmd.Env = append(os.Environ(), "CHARONSIM_CLI_HELPER=1", "CHARONSIM_CLI_ARGS=-h")
	var sub bytes.Buffer
	cmd.Stdout = &sub
	cmd.Stderr = &sub
	err := cmd.Run()
	if code := cmd.ProcessState.ExitCode(); err != nil || code != 0 {
		t.Fatalf("charonsim -h exited %d (err %v); want 0. Output:\n%s", code, err, sub.String())
	}
	if !strings.Contains(sub.String(), "Usage of charonsim") {
		t.Fatalf("no usage text on -h:\n%s", sub.String())
	}
}

func TestSplitWorkloads(t *testing.T) {
	cases := []struct {
		in   string
		want []string
		err  bool
	}{
		{in: "BS", want: []string{"BS"}},
		{in: "BS,KM", want: []string{"BS", "KM"}},
		{in: "BS, KM", want: []string{"BS", "KM"}},
		{in: " BS , KM ", want: []string{"BS", "KM"}},
		{in: "BS,,KM", want: []string{"BS", "KM"}},
		{in: ",BS,", want: []string{"BS"}},
		{in: "\tBS\n", want: []string{"BS"}},
		{in: ",", err: true},
		{in: " , ", err: true},
		{in: ",,,", err: true},
		{in: "   ", err: true},
	}
	for _, c := range cases {
		got, err := SplitWorkloads(c.in)
		if c.err {
			if err == nil {
				t.Errorf("SplitWorkloads(%q) = %v, want error", c.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("SplitWorkloads(%q): %v", c.in, err)
			continue
		}
		if strings.Join(got, "|") != strings.Join(c.want, "|") {
			t.Errorf("SplitWorkloads(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestWorkloadsFlagToleratesWhitespace: the end-to-end regression for the
// -workloads parsing fix — sloppy-but-unambiguous token lists run, and a
// token-free list is a clear configuration error.
func TestWorkloadsFlagToleratesWhitespace(t *testing.T) {
	var out, errb bytes.Buffer
	// table4 is render-only, so the run is fast — the point is that the
	// sloppy list survives SplitWorkloads and then Config.Validate.
	if code := Run([]string{"-exp", "table4", "-workloads", "BS, ,", "-parallel", "1"}, &out, &errb); code != 0 {
		t.Fatalf("whitespace workload list exited %d: %s", code, errb.String())
	}

	out.Reset()
	errb.Reset()
	if code := Run([]string{"-exp", "fig2", "-workloads", " , "}, &out, &errb); code != 2 {
		t.Fatalf("token-free workload list exited %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "no workload names") {
		t.Fatalf("token-free workload list error is not clear:\n%s", errb.String())
	}
}
