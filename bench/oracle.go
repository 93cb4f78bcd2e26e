package main

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"charonsim"
	"charonsim/internal/cli"
	"charonsim/internal/experiments"
	"charonsim/internal/server"
)

// The expected sha256 of every output the benchmark checks, keyed by the
// input that produced it. Seeds only choose and order inputs from these
// tables, so every seed is checked. Regenerate with -update.
//
//go:embed testdata/*.json
var testdata embed.FS

type oracle map[string]string

func loadOracle(name string) (oracle, error) {
	b, err := testdata.ReadFile("testdata/" + name + ".json")
	if err != nil {
		return nil, err
	}
	var o oracle
	if err := json.Unmarshal(b, &o); err != nil {
		return nil, fmt.Errorf("oracle %s: %w", name, err)
	}
	return o, nil
}

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// verdict is the outcome of one operation. The order matters: an
// operation made of several checks takes the worst of them.
type verdict int

const (
	passed verdict = iota
	unchecked
	failed
)

// verify compares an output's digest with the expected one. An output
// with no expected digest is unchecked, never passed.
func (o oracle) verify(key, got string) verdict {
	want, ok := o[key]
	switch {
	case !ok:
		return unchecked
	case want != got:
		return failed
	}
	return passed
}

// tally counts a run's operations by verdict.
type tally struct {
	attempted, failed, unchecked int
}

func (t *tally) add(v verdict) {
	t.attempted++
	switch v {
	case failed:
		t.failed++
	case unchecked:
		t.unchecked++
	}
}

// update recomputes every table and writes them under dir. The serve
// table holds each served spec's bytes as the CLI renders them: served
// results must be byte-identical to it.
func update(dir string) error {
	suite := oracle{}
	reports, err := charonsim.RunAll(charonsim.Config{Workloads: []string{suiteWorkload}, Parallelism: -1})
	if err != nil {
		return err
	}
	for _, r := range reports {
		suite[r.ID] = digest([]byte(r.Text))
	}

	replay := oracle{}
	s := experiments.NewSession(experiments.Config{Parallelism: -1})
	for _, w := range charonsim.Workloads() {
		run, err := s.Record(w, replayFactor)
		if err != nil {
			return err
		}
		for _, k := range append(append([]kindName(nil), hostKinds...), charonKinds...) {
			u, err := replayUnit(newTracer(), 0, newHostClock(), run, k.kind)
			if err != nil {
				return err
			}
			replay[unitKey(w, k.kind)] = u.digest
		}
	}

	var specs []server.JobSpec
	for _, f := range append(freshFactors(), sweepFactors()...) {
		specs = append(specs, fig14Spec(f))
	}
	for _, t := range tableThreads() {
		specs = append(specs, tableSpec(t))
	}
	serve, err := serveDigests(specs)
	if err != nil {
		return err
	}

	for name, o := range map[string]oracle{"suite": suite, "replay": replay, "serve": serve} {
		b, err := json.MarshalIndent(o, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, name+".json"), append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// serveDigests renders every spec through the CLI path, two at a time.
func serveDigests(specs []server.JobSpec) (oracle, error) {
	out := make([]string, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(specs); i += 2 {
				sp := specs[i]
				r, err := charonsim.Run(sp.Experiment, charonsim.Config{Threads: sp.Threads,
					HeapFactor: sp.HeapFactor, Workloads: sp.Workloads, Parallelism: sp.Parallelism})
				if err != nil {
					errs[i] = fmt.Errorf("%s: %w", specKey(sp), err)
					continue
				}
				var b strings.Builder
				cli.RenderReports(&b, []*charonsim.Report{r})
				out[i] = digest([]byte(b.String()))
			}
		}(w)
	}
	wg.Wait()
	o := oracle{}
	for i, sp := range specs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		o[specKey(sp)] = out[i]
	}
	return o, nil
}

// sortedKeys lists a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
