package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"syscall"
	"time"
)

// environment describes the host a result was measured on.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	TmpFS      string  `json:"tmpdir_fs"`
	Seed       int64   `json:"seed"`
	CalibMS    float64 `json:"host_calib_ms"`
}

func hostEnvironment(seed int64, calibMS float64) environment {
	return environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		TmpFS:      fsType(os.TempDir()),
		Seed:       seed,
		CalibMS:    calibMS,
	}
}

// commit is the VCS revision the binary was built from, when the build
// recorded one (a checkout that is not a git repository has none).
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

// fsType names the filesystem holding dir: fsync cost, and so charond's
// admission latency, depends on it.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	magic := uint64(st.Type)
	switch magic {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", magic)
}

// refTable is the reference loop's working set. At 4 MB the loop's speed
// tracked the simulator's through the host's slow periods better than a
// register-only loop or a 1, 16 or 64 MB table did (see README.md).
var refTable = make([]uint64, 1<<19)

var refSink uint64

// refLoop times a fixed pure-Go loop of random read-modify-writes over
// refTable, in seconds. It shares no code with the simulator, so only
// the host moves it.
func refLoop() float64 {
	start := time.Now()
	x, acc := uint64(88172645463325252), uint64(0)
	for i := 0; i < 1<<20; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (1<<19 - 1)
		acc += refTable[j]
		refTable[j] = acc
	}
	refSink = acc
	return time.Since(start).Seconds()
}

// refNominal is what refLoop took on the host the benchmark was defined
// on, in seconds.
const refNominal = 0.006

// refEvery is how much work may pass between two reference readings when
// the simulator polls the clock.
const refEvery = 100 * time.Millisecond

// hostClock converts the wall time of measured work to seconds at
// reference host speed. The host's speed moves by tens of percent within
// minutes (see README.md), so the reference loop is read at both ends of
// every piece of work and, inside it, whenever the simulator polls the
// clock after refEvery of work. Each stretch between two readings is
// scaled by their mean; the readings themselves are not counted.
//
// The clock is a context.Context that is never cancelled. Given as a
// session's or platform's context, its Err method is called every few
// thousand scheduler steps, on the goroutine doing the work.
type hostClock struct {
	context.Context
	mu        sync.Mutex
	running   bool
	last      time.Time // end of the latest reading
	k         float64   // scale from the latest reading
	norm, raw float64   // the current piece so far, in seconds
}

func newHostClock() *hostClock { return &hostClock{Context: context.Background()} }

func (h *hostClock) Err() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.running && time.Since(h.last) >= refEvery {
		h.read()
	}
	return nil
}

// read closes the stretch since the latest reading. Callers hold h.mu.
func (h *hostClock) read() {
	d := time.Since(h.last).Seconds()
	k := refNominal / refLoop()
	h.raw += d
	h.norm += d * (h.k + k) / 2
	h.k = k
	h.last = time.Now()
}

// start begins a piece of work.
func (h *hostClock) start() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.k = refNominal / refLoop()
	h.norm, h.raw = 0, 0
	h.running = true
	h.last = time.Now()
}

// stop ends the piece and returns its seconds at reference host speed
// and as the clock read.
func (h *hostClock) stop() (norm, raw float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.read()
	h.running = false
	return h.norm, h.raw
}

// calibrate is host.calib_ms: ten reference loops, after one that faults
// the table in, at the start of every workload.
func calibrate() float64 {
	refLoop()
	var sum float64
	for i := 0; i < 10; i++ {
		sum += refLoop()
	}
	return sum * 1e3
}

// peakRSSMB is the process's peak resident set so far (VmHWM).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// span is one timed call the benchmark made into a layer.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer records spans in memory; they are written out when the run ends.
// Span ids start at 1, and 0 is the parent of a root span.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int) int {
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id and returns its duration in seconds.
func (t *tracer) end(id int) float64 {
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return s.End - s.Start
}
