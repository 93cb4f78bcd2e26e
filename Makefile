# Developer entry points. Everything here is plain go tool invocations;
# CI (.github/workflows/ci.yml) runs the same commands.

GO ?= go

.PHONY: build vet test short race golden bench benchmark benchsmoke parbench audit faults fuzz e2e lint loc ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test -timeout 30m ./...

# Fast subset: slow figure-shape tests skip themselves under -short.
short:
	$(GO) test -short -timeout 10m ./...

# Race coverage of the parallel harness, the host replay's walk-ahead
# producers, the serving stack and the persistence stack under it (the
# checkpoint store and the failing test filesystem are shared by
# concurrent writers). -short keeps the simulation-heavy shape tests out;
# the concurrency tests never skip.
race:
	$(GO) test -race -short -timeout 30m ./internal/experiments ./internal/sim ./internal/gc ./internal/exec ./internal/cpu
	$(GO) test -race -timeout 30m -run 'Deterministic|Session|Parallel|Concurrent|KindTable' .
	$(GO) test -race -timeout 30m ./internal/server ./internal/client ./internal/fault/netfault ./internal/checkpoint ./internal/atomicio

# Regenerate render golden files after an intentional format change.
golden:
	$(GO) test ./internal/experiments -run Golden -update

bench:
	$(GO) test -bench=. -benchmem -benchtime=1x

# The repository benchmark (bench/README.md): every workload, end-to-end
# and per-layer metrics plus the output oracle.
benchmark:
	bash bench/run.sh --workload all --seed 1

# Self-test of the repository benchmark: its oracle, metric declarations
# and report plumbing (bench/ is its own module).
benchsmoke:
	cd bench && $(GO) test .

# Invariant audit: vet plus the cross-component conservation and
# utilization-range checks (byte conservation between requesters and DRAM
# banks, utilization gauges in [0,1], unit-busy double accounting), the
# cache's equivalence to its stamp-based LRU reference, the split
# hierarchy walk's equivalence to the single-pass one, the calendar
# ring's and slot heap's equivalence to their retired references, the GC
# log's footprint and packing (16 B invocations and 8 B reference visits
# that read back every operand in the 4 GB address budget and refuse one
# outside it, Scan&Push ranges that tile the visits, oversize layouts
# and heap factors rejected, events closed at exact size, no functional
# heap kept by a recorded Run), the streamed op expansion's equivalence
# to the whole one and its allocation-free buffer, charond's recovery
# from a crash after every journal write of one job and of one sweep
# (nothing accepted lost, nothing completed re-run, ids and report bytes
# unchanged) and after every write of one real fig12 job, unit
# checkpoints included (the job recovered under its id, no landed unit
# rewritten, report bytes unchanged), the CLI's -checkpoint-dir resume
# after a crash at every unit write (report bytes unchanged, exactly the
# units that did not land published), plus short fuzz passes over the
# public Config boundary, both cache equivalences, the calendar ring, the
# GC log's record packing, charond's journal replay and the checkpoint
# entry decoder (a hit is a head line with this version, this key and the
# payload's checksum; a rejected file is deleted). Every journal exec
# boots a server over fsync'd files, so its minimization is capped at 10
# execs: the default 60 s budget would spend the whole short pass
# minimizing the first new input.
audit:
	$(GO) vet ./...
	$(GO) test -timeout 10m -run 'Invariant|Conservation|Utilization|BusyNeverExceeds|PerUnitMetrics|RequesterBytes|ConfigValidate|CacheMatchesReference|SplitWalkMatchesReference|CalendarRing|SlotsMatchReference|LogRecordSizes|LogRecordPacking|NewRejectsOversizeLayout|HeapFactorWithinAddressLimit|ScanPushRefsTileLog|LogEventsExactSize|ExpanderStreamsReference|ExpanderAllocatesNothing|RunRetainsNoFunctionalHeap|CrashAtEveryJournalWrite|CrashAtEveryUnitWrite|CrashAtEveryCheckpointWrite' ./internal/exec ./internal/charon ./internal/sim ./internal/cache ./internal/gc ./internal/experiments ./internal/server .
	$(GO) test -run FuzzConfigValidate -fuzz=FuzzConfigValidate -fuzztime=$(FUZZTIME) .
	$(GO) test -run FuzzCacheEquivalence -fuzz=FuzzCacheEquivalence -fuzztime=$(FUZZTIME) ./internal/cache
	$(GO) test -run FuzzSplitWalkEquivalence -fuzz=FuzzSplitWalkEquivalence -fuzztime=$(FUZZTIME) ./internal/cache
	$(GO) test -run FuzzCalendarRingEquivalence -fuzz=FuzzCalendarRingEquivalence -fuzztime=$(FUZZTIME) ./internal/sim
	$(GO) test -run FuzzLogRecordPacking -fuzz=FuzzLogRecordPacking -fuzztime=$(FUZZTIME) ./internal/gc
	$(GO) test -run FuzzJournalReplay -fuzz=FuzzJournalReplay -fuzztime=$(FUZZTIME) -fuzzminimizetime=10x ./internal/server
	$(GO) test -run FuzzCheckpointEntry -fuzz=FuzzCheckpointEntry -fuzztime=$(FUZZTIME) ./internal/checkpoint

# Fuzz the public Config boundary (Validate must never panic, accepted
# configs must run cleanly), the calendar ring (exact against the
# retired map-scan reference on arbitrary reserve/query interleavings
# inside the window; behind it, reservations clamp to the window base and
# are counted), the host cache (results, stats, flushes and dirty-line
# order must match the retired stamp-based LRU reference on any geometry
# up to 16 ways), the split hierarchy walk (latency, memory flag,
# writebacks and per-level stats must match the single-pass walk on any
# three geometries up to 16 ways), the GC log's record packing (every
# primitive and flag set, any A below the address limit and any 8-byte
# aligned B, slot and target below it read back), charond's job and sweep body decoders (no panic or
# 5xx; a malformed body is a 400 that admits nothing), journal replay (a
# fuzzed record, or a sweep manifest beside a fuzzed child record, is
# recovered or collected, never fatal) and checkpoint entry decoding (a
# hit is a head line with this version, this key and the checksum of the
# payload after it; a rejected file is deleted). FUZZTIME=10m fuzz for a
# longer soak.
FUZZTIME ?= 15s
fuzz:
	$(GO) test -run FuzzConfigValidate -fuzz=FuzzConfigValidate -fuzztime=$(FUZZTIME) .
	$(GO) test -run FuzzCalendarRingEquivalence -fuzz=FuzzCalendarRingEquivalence -fuzztime=$(FUZZTIME) ./internal/sim
	$(GO) test -run FuzzCacheEquivalence -fuzz=FuzzCacheEquivalence -fuzztime=$(FUZZTIME) ./internal/cache
	$(GO) test -run FuzzSplitWalkEquivalence -fuzz=FuzzSplitWalkEquivalence -fuzztime=$(FUZZTIME) ./internal/cache
	$(GO) test -run FuzzLogRecordPacking -fuzz=FuzzLogRecordPacking -fuzztime=$(FUZZTIME) ./internal/gc
	$(GO) test -run FuzzSubmitJob -fuzz=FuzzSubmitJob -fuzztime=$(FUZZTIME) ./internal/server
	$(GO) test -run FuzzSubmitSweep -fuzz=FuzzSubmitSweep -fuzztime=$(FUZZTIME) ./internal/server
	$(GO) test -run FuzzJournalReplay -fuzz=FuzzJournalReplay -fuzztime=$(FUZZTIME) ./internal/server
	$(GO) test -run FuzzCheckpointEntry -fuzz=FuzzCheckpointEntry -fuzztime=$(FUZZTIME) ./internal/checkpoint

# End-to-end gate: charond as a real process (serve, kill -9 recovery of
# a job and a sweep, the netfault seed matrix). The test binary re-enters
# charond itself, so nothing else is built. CLI interrupt/resume is
# covered by TestSigintResumesByteIdentical in ./internal/cli.
e2e:
	$(GO) test -timeout 20m ./internal/e2e

# Serial-vs-parallel wall-time comparison (also verifies byte-identical
# output across parallelism settings).
parbench:
	$(GO) test -bench=BenchmarkSuiteSerialVsParallel -benchtime=1x -timeout 60m

# Fault-injection smoke: race-checked fault/degradation tests across every
# layer, then a real fault-sweep run that exports its metrics snapshot
# (CI uploads fault-metrics.json as a build artifact).
faults:
	$(GO) test -race -timeout 30m -run 'Fault|Failover|AllUnitsFailed|Degrad|Retry|BankRemap|Watchdog' \
		./internal/fault ./internal/memsys ./internal/dram ./internal/hmc ./internal/charon ./internal/exec ./internal/experiments
	$(GO) run ./cmd/charonsim -exp faults -workloads BS -metrics fault-metrics.json

# Static analysis beyond vet. staticcheck is optional locally (the target
# skips with a notice when the binary is absent); CI installs it.
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)" ; \
	fi

# The size of the program: lines of non-test Go outside bench/, the
# headline count ROADMAP.md tracks from change to change.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -exec cat {} + | wc -l

ci: lint build test race audit faults benchsmoke e2e
