package main

import (
	"math"
	"sort"
	"strings"

	"charonsim/internal/metrics"
)

// decl is one declared metric. BENCHMARK.json declares the same names and
// units; the self-test holds the two lists equal.
type decl struct {
	Name, Unit string
}

// endToEnd is what every untraced run emits, on every workload.
var endToEnd = []decl{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"peak_rss_mb", "MB"},
}

// simExperiments are the suite's experiments that simulate; the tables
// render constants and get no span metric.
var simExperiments = []string{
	"ablations", "collectors", "faults", "fig12", "fig13", "fig14", "fig15",
	"fig16", "fig17", "fig2", "fig4a", "fig4b", "thermal",
}

// profGroups are the layers a CPU profile's self time is split into.
var profGroups = []string{
	"cache", "sim", "dram", "hmc", "charon", "cpu", "memsys", "exec", "record",
	"experiments", "server", "net", "runtime", "syscall", "other",
}

// modelCounters are the simulated-hardware counters. They are exact: a
// change that only speeds the simulator up must leave them unchanged.
var modelCounters = []decl{
	{"cache.l1_accesses", "count"},
	{"cache.l1_hit_ratio", "ratio"},
	{"cache.l3_hit_ratio", "ratio"},
	{"cache.writebacks", "count"},
	{"cpu.ops", "count"},
	{"dram.accesses", "count"},
	{"dram.row_hit_ratio", "ratio"},
	{"hmc.vault_accesses", "count"},
	{"hmc.link_bytes", "bytes"},
	{"hmc.local_ratio", "ratio"},
	{"charon.offloads", "count"},
	{"charon.request_packets", "count"},
	{"charon.tlb_remote_ratio", "ratio"},
	{"charon.bitmap_cache_hit_ratio", "ratio"},
}

// perLayer is what every traced run emits, on every workload. A layer the
// workload does not exercise reads 0.
func perLayer() []decl {
	d := []decl{
		{"record.s", "s"},
		{"replay.ddr4_s", "s"},
		{"replay.hmc_s", "s"},
		{"replay.charon_s", "s"},
		{"replay.charon_dist_s", "s"},
		{"replay.charon_cpuside_s", "s"},
		{"replay.construct_s", "s"},
		{"replay.ns_per_l1_access", "ns"},
		{"replay.ns_per_charon_request", "ns"},
	}
	for _, id := range simExperiments {
		d = append(d, decl{"exp." + id + "_s", "s"})
	}
	for _, n := range []string{
		"job_p50", "job_p90", "sweep_p50", "submit_p50", "admin_p50", "admin_p90",
		"repeat_p50", "queue_wait_p50", "queue_wait_p90", "run_p50", "overhead_p50",
	} {
		d = append(d, decl{"server." + n + "_ms", "ms"})
	}
	for _, n := range []string{
		"jobs_completed", "cache_hits", "dedup_hits", "sweep_child_dedup", "jobs_retried", "rejected",
	} {
		d = append(d, decl{"server." + n, "count"})
	}
	d = append(d, decl{"server.reuse_ratio", "ratio"})
	d = append(d, modelCounters...)
	for _, g := range profGroups {
		d = append(d, decl{"prof." + g + ".self_share", "ratio"})
	}
	for _, g := range []string{"replay_host", "replay_charon", "record"} {
		d = append(d, decl{"prof." + g + ".cum_share", "ratio"})
	}
	return append(d, decl{"host.calib_ms", "ms"}, decl{"trace.overhead_frac", "ratio"})
}

// quantile interpolates linearly between the closest ranks of xs; it
// returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), which is
// how the spread of a set of runs is judged.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) < 2 {
		m := median(s)
		return m, m
	}
	at := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// modelValues folds a registry of component counters (as published by
// exec.MetricsSource.CollectMetrics under per-platform prefixes) into the
// model counters. DRAM covers both DDR4 banks and HMC vaults.
func modelValues(reg *metrics.Registry) map[string]float64 {
	var l1Hit, l1Miss, l3Hit, l3Miss, wb, ops float64
	var rowHit, rowAll, vault, link, local, remote float64
	var offloads, packets, tlb, tlbRemote, bmHit, bmMiss float64
	for name, v := range reg.Snapshot().Counters {
		cpu := strings.Contains(name, "/cpu/")
		switch {
		case cpu && strings.HasSuffix(name, "/l1d/hits"):
			l1Hit += v
		case cpu && strings.HasSuffix(name, "/l1d/misses"):
			l1Miss += v
		case cpu && strings.HasSuffix(name, "/l3/hits"):
			l3Hit += v
		case cpu && strings.HasSuffix(name, "/l3/misses"):
			l3Miss += v
		case cpu && strings.HasSuffix(name, "/writebacks"):
			wb += v
		case cpu && strings.HasSuffix(name, "/ops"):
			ops += v
		case strings.HasSuffix(name, "/row_hits"), strings.HasSuffix(name, "/row_opens"),
			strings.HasSuffix(name, "/row_conflicts"):
			rowAll += v
			if strings.HasSuffix(name, "/row_hits") {
				rowHit += v
			}
			if strings.Contains(name, "/hmc/cube") {
				vault += v
			}
		case strings.Contains(name, "/hmc/") &&
			(strings.HasSuffix(name, "/up_bytes") || strings.HasSuffix(name, "/down_bytes")):
			link += v
		case strings.HasSuffix(name, "/hmc/local_accesses"):
			local += v
		case strings.HasSuffix(name, "/hmc/remote_accesses"):
			remote += v
		case strings.Contains(name, "/charon/offload_"):
			offloads += v
		case strings.HasSuffix(name, "/charon/request_packets"):
			packets += v
		case strings.HasSuffix(name, "/charon/tlb_accesses"):
			tlb += v
		case strings.HasSuffix(name, "/charon/tlb_remote"):
			tlbRemote += v
		case strings.Contains(name, "/charon/bmcache") && strings.HasSuffix(name, "/hits"):
			bmHit += v
		case strings.Contains(name, "/charon/bmcache") && strings.HasSuffix(name, "/misses"):
			bmMiss += v
		}
	}
	return map[string]float64{
		"cache.l1_accesses":             l1Hit + l1Miss,
		"cache.l1_hit_ratio":            ratio(l1Hit, l1Hit+l1Miss),
		"cache.l3_hit_ratio":            ratio(l3Hit, l3Hit+l3Miss),
		"cache.writebacks":              wb,
		"cpu.ops":                       ops,
		"dram.accesses":                 rowAll,
		"dram.row_hit_ratio":            ratio(rowHit, rowAll),
		"hmc.vault_accesses":            vault,
		"hmc.link_bytes":                link,
		"hmc.local_ratio":               ratio(local, local+remote),
		"charon.offloads":               offloads,
		"charon.request_packets":        packets,
		"charon.tlb_remote_ratio":       ratio(tlbRemote, tlb),
		"charon.bitmap_cache_hit_ratio": ratio(bmHit, bmHit+bmMiss),
	}
}
