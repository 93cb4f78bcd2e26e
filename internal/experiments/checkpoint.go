package experiments

import (
	"encoding/json"
	"fmt"

	"charonsim/internal/charon"
	"charonsim/internal/checkpoint"
	"charonsim/internal/exec"
	"charonsim/internal/fault"
	"charonsim/internal/hmc"
	"charonsim/internal/metrics"
)

// resultSchema versions the serialized unitResult payload; bump it
// whenever exec.Result (or anything feeding it) changes shape or timing
// semantics, so stale sweeps re-execute instead of replaying old numbers.
// Version 2 added the unit's metrics snapshot.
const resultSchema = 2

// unitResult is everything one replay unit produces: its per-event
// results and, when the session collects metrics, a snapshot of the
// platform's counters. It is both the memo's value and the checkpoint
// payload.
type unitResult struct {
	Results []exec.Result     `json:"results"`
	Metrics *metrics.Snapshot `json:"metrics,omitempty"`
}

// runKey canonicalizes the fully-resolved configuration of one replay
// unit. Everything that can change the result is in the key — recording
// identity (workload, exact factor, collector mode), platform kind, GC
// thread count and the platform options (optionsKey) — plus, per the
// documented conservative-invalidation rule, the knobs that *shouldn't*
// change results but guard against drift: the complete fault
// configuration and the session parallelism.
func (s *Session) runKey(u replayUnit) string {
	return fmt.Sprintf(
		"replay/v%d|wl=%s|factor=%v|mode=%v|platform=%s|threads=%d|par=%d|%s%s",
		resultSchema, u.r.Name, u.r.Factor, u.r.Mode, u.kind, u.threads, s.cfg.Parallelism,
		faultKey(u.fc), optionsKey(u.opt))
}

// optionsKey canonicalizes a unit's platform options: the accelerator
// configuration once its zero fields take their defaults, and the cube
// topology. Table 2's accelerator and the star topology add nothing, so
// a default-option unit keys exactly as a unit with no options does.
// Field-by-field, like faultKey.
func optionsKey(opt exec.Options) string {
	k := ""
	if opt.CharonConfig != nil {
		if c := opt.CharonConfig.WithDefaults(); c != charon.DefaultConfig() {
			k += fmt.Sprintf(
				"|charon:copy=%d,count=%d,scanpush=%d,mai=%d,period=%d,grain=%d,bmcache=%d,dist=%t,cpuside=%t",
				c.CopySearchPerCube, c.BitmapCountPerCube, c.ScanPushUnits, c.MAIEntries,
				c.LogicPeriod, c.StreamGrain, c.BitmapCacheBytes, c.Distributed, c.CPUSide)
		}
	}
	if opt.Topology != hmc.Star {
		k += "|topology=" + opt.Topology.String()
	}
	return k
}

// faultKey canonicalizes every fault knob. Field-by-field (not %+v) so a
// fault.Config field addition forces a conscious decision here.
func faultKey(fc fault.Config) string {
	return fmt.Sprintf(
		"fault:rate=%.6g,seed=%d,crc=%.6g,budget=%d,backoff=%d,ecc=%.6g,ecclat=%d,bank=%.6g,ufail=%.6g,udeg=%.6g,dfac=%.6g,failall=%t,deadline=%d",
		fc.Rate, fc.Seed, fc.LinkCRCRate, fc.RetryBudget, uint64(fc.RetryBackoff),
		fc.ECCRate, uint64(fc.ECCLatency), fc.HardBankRate, fc.UnitFailRate,
		fc.UnitDegradeRate, fc.DegradeFactor, fc.FailAllUnits, uint64(fc.OffloadDeadline))
}

// getCachedUnit decodes a stored replay. Decode failures are treated as
// a miss — the store's checksum makes them near-impossible, but a miss is
// always safe. So is an entry without a metrics snapshot when the session
// needs one: re-executing the unit rewrites it with the snapshot.
func getCachedUnit(st *checkpoint.Store, key string, needMetrics bool) (unitResult, bool) {
	payload, ok := st.Get(key)
	if !ok {
		return unitResult{}, false
	}
	var u unitResult
	if err := json.Unmarshal(payload, &u); err != nil || (needMetrics && u.Metrics == nil) {
		return unitResult{}, false
	}
	return u, true
}

// putCachedUnit persists one completed replay. Errors are swallowed by
// design (counted in the store's stats): checkpointing must never fail a
// sweep that would otherwise succeed.
func putCachedUnit(st *checkpoint.Store, key string, u unitResult) {
	payload, err := json.Marshal(u)
	if err != nil {
		return
	}
	_ = st.Put(key, payload)
}
