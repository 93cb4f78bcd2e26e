// Package e2e drives charond as a real OS process: boot on an ephemeral
// port, kill -9 mid-run, restart over the same cache directory, SIGTERM
// drain, and a seeded netfault proxy in front of it. The test binary is
// the only build: TestMain re-enters server.Main when the helper
// environment variable is set. Every test skips under -short; run them
// with `make e2e`.
package e2e

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"charonsim/internal/cli"
	"charonsim/internal/client"
	"charonsim/internal/server"
)

// argsEnv carries a helper process's charond arguments, \x1f-separated.
const argsEnv = "CHAROND_E2E_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(argsEnv); ok {
		os.Exit(server.Main(strings.Split(args, "\x1f"), os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// charond is one charond subprocess.
type charond struct {
	cmd     *exec.Cmd
	base    string // http://host:port
	errPath string // the process's stderr: its structured log
}

// startCharond boots charond over cacheDir on 127.0.0.1:0 and returns
// once its first stdout line has announced the bound address.
func startCharond(t *testing.T, cacheDir string) *charond {
	t.Helper()
	args := []string{"-addr", "127.0.0.1:0", "-workers", "1", "-queue", "8", "-cache-dir", cacheDir}
	errF, err := os.CreateTemp(t.TempDir(), "charond-*.err")
	if err != nil {
		t.Fatal(err)
	}
	defer errF.Close() // the child keeps its own descriptor
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), argsEnv+"="+strings.Join(args, "\x1f"))
	cmd.Stderr = errF
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &charond{cmd: cmd, errPath: errF.Name()}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})

	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("charond printed no listening line; stderr:\n%s", p.stderr())
	}
	base, ok := strings.CutPrefix(sc.Text(), "charond listening on ")
	if !ok {
		t.Fatalf("unexpected first stdout line %q", sc.Text())
	}
	p.base = base
	go io.Copy(io.Discard, stdout)
	return p
}

func (p *charond) stderr() string {
	raw, _ := os.ReadFile(p.errPath)
	return string(raw)
}

// kill9 kills the process without letting it run a single cleanup step.
func (p *charond) kill9(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	p.cmd.Wait()
}

// sigterm asks for a graceful drain and asserts its contract: exit code
// 0 and a "drained cleanly" log line.
func (p *charond) sigterm(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	hung := time.AfterFunc(2*time.Minute, func() { p.cmd.Process.Kill() })
	defer hung.Stop()
	p.cmd.Wait()
	if code := p.cmd.ProcessState.ExitCode(); code != 0 {
		t.Fatalf("SIGTERM drain exited %d, want 0; stderr:\n%s", code, p.stderr())
	}
	if !strings.Contains(p.stderr(), "drained cleanly") {
		t.Fatalf("no clean-drain log line; stderr:\n%s", p.stderr())
	}
}

// unitFingerprints maps every published unit checkpoint under
// cacheDir/units to its mtime and size: a rewritten file is re-executed
// work.
func unitFingerprints(t *testing.T, cacheDir string) map[string]string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(cacheDir, "units", "*.ckpt.json"))
	if err != nil {
		t.Fatal(err)
	}
	fp := make(map[string]string, len(matches))
	for _, m := range matches {
		if st, err := os.Stat(m); err == nil {
			fp[m] = fmt.Sprintf("%d/%d", st.ModTime().UnixNano(), st.Size())
		}
	}
	return fp
}

// waitForUnit blocks until the first unit checkpoint is published, so a
// kill lands on genuinely partial work.
func waitForUnit(t *testing.T, p *charond, cacheDir string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for len(unitFingerprints(t, cacheDir)) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no unit checkpoint appeared; stderr:\n%s", p.stderr())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// cliReports caches CLI output per experiment; the tests run serially.
var cliReports = map[string]string{}

// cliReport runs the charonsim CLI in-process for each experiment on
// workload BS and returns the reports concatenated in order, each with
// its wall-clock trailer line stripped: the bytes a served job or sweep
// must reproduce exactly.
func cliReport(t *testing.T, exps ...string) string {
	t.Helper()
	var b strings.Builder
	for _, exp := range exps {
		if _, ok := cliReports[exp]; !ok {
			var out, errb bytes.Buffer
			if code := cli.Run([]string{"-exp", exp, "-workloads", "BS"}, &out, &errb); code != 0 {
				t.Fatalf("CLI -exp %s exited %d: %s", exp, code, errb.String())
			}
			text := strings.TrimSuffix(out.String(), "\n")
			i := strings.LastIndexByte(text, '\n')
			if !strings.Contains(text[i+1:], "experiment(s) in") {
				t.Fatalf("CLI output lacks its trailer line: %q", text[i+1:])
			}
			cliReports[exp] = text[:i+1]
		}
		b.WriteString(cliReports[exp])
	}
	return b.String()
}

// newClient returns a client with a short poll interval and a context
// bounding one test's calls.
func newClient(t *testing.T, cfg client.Config) (*client.Client, context.Context) {
	t.Helper()
	if cfg.PollInterval == 0 {
		cfg.PollInterval = 50 * time.Millisecond
	}
	c, err := client.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	t.Cleanup(cancel)
	return c, ctx
}

// serverCounter reads one counter from charond's /v1/metrics.
func serverCounter(t *testing.T, ctx context.Context, c *client.Client, name string) float64 {
	t.Helper()
	raw, err := c.ServerMetrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters map[string]float64 `json:"counters"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("decoding /v1/metrics: %v", err)
	}
	return snap.Counters[name]
}

// do sends one request and decodes a JSON answer into out (when non-nil),
// returning the status code.
func do(t *testing.T, method, url string, body []byte, out any) int {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s = %d: %v in %q", method, url, resp.StatusCode, err, raw)
		}
	}
	return resp.StatusCode
}
