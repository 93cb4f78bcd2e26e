package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// benchMetric is one metric as BENCHMARK.json declares it.
type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchmarkFile struct {
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

func readBenchmark(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	b, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(b, &bf); err != nil {
		return bf, fmt.Errorf("%s: %w", path, err)
	}
	return bf, nil
}

// readRecords loads every result record (one JSON object a line) from the
// .json and .jsonl files in dir.
func readRecords(dir string) ([]record, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var recs []record
	for _, e := range entries {
		if e.IsDir() || !(strings.HasSuffix(e.Name(), ".json") || strings.HasSuffix(e.Name(), ".jsonl")) {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for n := 1; sc.Scan(); n++ {
			if strings.TrimSpace(sc.Text()) == "" {
				continue
			}
			var r record
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				f.Close()
				return nil, fmt.Errorf("%s:%d: %w", e.Name(), n, err)
			}
			recs = append(recs, r)
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return nil, err
		}
	}
	return recs, nil
}

// series extracts one metric's values from the records of one workload
// and trace mode, ordered by seed so that two sides pair up by input.
func series(recs []record, workload string, traced bool, metric string) []float64 {
	var sel []record
	for _, r := range recs {
		if r.Workload == workload && r.Trace == traced {
			if _, ok := r.Metrics[metric]; ok {
				sel = append(sel, r)
			}
		}
	}
	sort.SliceStable(sel, func(i, j int) bool { return sel[i].Env.Seed < sel[j].Env.Seed })
	out := make([]float64, len(sel))
	for i, r := range sel {
		out[i] = r.Metrics[metric].Value
	}
	return out
}

func isModelCounter(name string) bool {
	for _, d := range modelCounters {
		if d.Name == name {
			return true
		}
	}
	return false
}

// judge gives a metric's verdict. A model counter must be identical in
// every run. A bounded metric is unresolved when either side's spread
// (interquartile range over median) exceeds the bound, unless every new
// run reads better than every old one; worse when the new median is worse
// by more than the bound; better when the medians differ by more than the
// old side's interquartile range and the new side wins at least nine
// tenths of the runs paired by seed; unchanged otherwise.
func judge(m benchMetric, old, new []float64) string {
	switch {
	case len(old) == 0 || len(new) == 0:
		return "missing"
	case isModelCounter(m.Name):
		for _, v := range append(old, new...) {
			if v != old[0] {
				return "differs"
			}
		}
		return "identical"
	case m.Bound == 0:
		return "-"
	}
	sign := 1.0 // > 0 when a larger value is worse
	if m.Better == "higher" {
		sign = -1
	}
	mo, mn := median(old), median(new)
	oq1, oq3 := quartiles(old)
	nq1, nq3 := quartiles(new)
	allBetter := true
	for _, o := range old {
		for _, n := range new {
			allBetter = allBetter && sign*(n-o) < 0
		}
	}
	wins, pairs := 0, min(len(old), len(new))
	for i := 0; i < pairs; i++ {
		if sign*(new[i]-old[i]) < 0 {
			wins++
		}
	}
	worse := sign * (mn - mo)
	switch {
	case max(ratio(oq3-oq1, mo), ratio(nq3-nq1, mn)) > m.Bound:
		if allBetter {
			return "better"
		}
		return "unresolved"
	case ratio(worse, mo) > m.Bound:
		return "worse"
	case -worse > oq3-oq1 && float64(wins) >= 0.9*float64(pairs):
		return "better"
	}
	return "unchanged"
}

// runCompare prints, per workload and metric, each side's median and
// quartiles and the verdict.
func runCompare(benchPath, oldDir, newDir string, w io.Writer) error {
	bf, err := readBenchmark(benchPath)
	if err != nil {
		return err
	}
	old, err := readRecords(oldDir)
	if err != nil {
		return err
	}
	nw, err := readRecords(newDir)
	if err != nil {
		return err
	}
	seen := map[string]bool{}
	for _, r := range append(append([]record(nil), old...), nw...) {
		seen[r.Workload] = true
	}
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	side := func(xs []float64) string {
		if len(xs) == 0 {
			return "-"
		}
		q1, q3 := quartiles(xs)
		return fmt.Sprintf("%.6g [%.6g %.6g] n=%d", median(xs), q1, q3, len(xs))
	}
	for _, wl := range sortedKeys(seen) {
		fmt.Fprintf(tw, "== %s ==\nmetric\tunit\told median [q1 q3]\tnew median [q1 q3]\tchange\tverdict\n", wl)
		for _, group := range []struct {
			traced  bool
			metrics []benchMetric
		}{{false, bf.EndToEnd}, {true, bf.PerLayer}} {
			for _, m := range group.metrics {
				o, n := series(old, wl, group.traced, m.Name), series(nw, wl, group.traced, m.Name)
				if len(o) == 0 && len(n) == 0 {
					continue
				}
				change := "-"
				if mo := median(o); len(o) > 0 && len(n) > 0 && mo != 0 {
					change = fmt.Sprintf("%+.2f%%", (median(n)-mo)/mo*100)
				}
				fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\n", m.Name, m.Unit, side(o), side(n), change, judge(m, o, n))
			}
		}
	}
	return tw.Flush()
}
