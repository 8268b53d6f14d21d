#!/bin/sh
# The repo's full verification gate, as named stages:
#
#	scripts/ci.sh [stage...]
#
# With no argument every stage runs, in the order of the list below.
# Each stage is one shell function, stage_<name>; a test joins a gate by
# being added to that stage's list here, and nowhere else
# (.claude/skills/verify/SKILL.md names stages, not commands).
# Run from anywhere inside the repo.
set -eu

cd "$(dirname "$0")/.."

stages="fmt vet build benchmod benchrun race shuffle fuzz coverage determinism audits daemon benchsmoke obsgate"

# run_listed 'TestA|TestB|...' <go test flags and packages>
# is go test -run with that list, after checking the list: go test -run
# skips an entry that matches nothing without a word, so a deleted or
# renamed test would shrink a gate silently. Every entry (a regexp, as
# -run reads it; several are prefixes of a family of tests) must match
# at least one test go test -list shows in the named packages.
run_listed() {
	names="$1"
	shift
	have="$(go test -list . "$@" | grep '^Test')"
	for name in $(echo "${names}" | tr '|' ' '); do
		if ! echo "${have}" | grep -Eq "${name}"; then
			echo "ci: no test matches ${name} in: $*  (fix the -run list)" >&2
			exit 1
		fi
	done
	go test -run "${names}" "$@"
}

stage_fmt() {
	echo "==> gofmt -l" >&2
	unformatted="$(git ls-files '*.go' | xargs gofmt -l)"
	if [ -n "${unformatted}" ]; then
		echo "ci: gofmt -l lists:" >&2
		echo "${unformatted}" >&2
		exit 1
	fi
}

stage_vet() {
	echo "==> go vet ./..." >&2
	go vet ./...
}

stage_build() {
	echo "==> go build ./..." >&2
	go build ./...
	# The documents name tests, paths and metrics; all of them must be in
	# the tree that just built. The stitcher and the forest fan out only
	# through obs.Each, the stitcher, the placer and synthesis draw only
	# through internal/rng, a result path's sort.Slice is total, and the
	# CF policy and the CF grid live only in internal/pblock.
	run_listed 'TestDocsNameRealThings|TestFanOutOnlyThroughEach|TestSeededLoopsUseRNG|TestResultSortsTotal|TestCFPolicyOnlyInPBlock|TestCFGridOnlyInPBlock' .
}

stage_benchmod() {
	# cmd/bench is a module of its own (replace macroflow => ../..), so the
	# ./... patterns above and below never reach it; its adapter.go calls
	# straight into internal/*, and a refactor there must not break it
	# unnoticed.
	echo "==> cmd/bench: go vet + go test" >&2
	go -C cmd/bench vet .
	go -C cmd/bench test .
}

stage_benchrun() {
	# The benchmark as its driver runs it: BENCHMARK.json's command, every
	# workload, untraced and traced, one second each. A run must exit 0
	# and report a correct result with no failed operation.
	workloads="$(sed -n 's/^ *"name": "\([a-z-]*\)",$/\1/p' BENCHMARK.json)"
	for w in ${workloads}; do
		for trace in 0 1; do
			echo "==> cmd/bench/run.sh --workload ${w} --trace ${trace}" >&2
			line="$(bash cmd/bench/run.sh --workload "${w}" --seed 1 --seconds 1 --trace "${trace}")"
			if ! echo "${line}" | grep -q '"correct":true' || ! echo "${line}" | grep -Eq '"failed":0[,}]'; then
				echo "ci: ${w} --trace ${trace}: want \"correct\":true and \"failed\":0, got: ${line}" >&2
				exit 1
			fi
		done
	done
}

stage_race() {
	# The full-flow suite under -race runs close to go test's 10-minute
	# default per-package timeout; an explicit budget keeps the gate from
	# flaking on loaded boxes without masking a real hang.
	echo "==> go test -race ./..." >&2
	go test -race -timeout 30m ./...
}

stage_shuffle() {
	# Shuffled pass: the suite must not depend on test execution order.
	# A fixed seed keeps failures reproducible; bump it when hunting.
	echo "==> go test -shuffle=on (order independence)" >&2
	go test -shuffle="${CI_SHUFFLE_SEED:-1}" ./...
}

stage_fuzz() {
	# Fuzz smoke: each native fuzz target runs briefly from its seed corpus
	# (~1.5 min total). This is a regression tripwire, not a bug hunt — longer
	# campaigns run with: go test -fuzz <Target> -fuzztime 10m <pkg>.
	echo "==> fuzz smoke (9 targets x ${CI_FUZZTIME:-10s})" >&2
	go test -run '^$' -fuzz '^FuzzTextRoundTrip$' -fuzztime "${CI_FUZZTIME:-10s}" ./internal/netlist/
	go test -run '^$' -fuzz '^FuzzModuleContent$' -fuzztime "${CI_FUZZTIME:-10s}" ./internal/netlist/
	go test -run '^$' -fuzz '^FuzzElaborate$' -fuzztime "${CI_FUZZTIME:-10s}" ./internal/synth/
	go test -run '^$' -fuzz '^FuzzEstimatorRoundTrip$' -fuzztime "${CI_FUZZTIME:-10s}" .
	go test -run '^$' -fuzz '^FuzzPartitionAssign$' -fuzztime "${CI_FUZZTIME:-10s}" ./internal/partition/
	go test -run '^$' -fuzz '^FuzzLegalRows$' -fuzztime "${CI_FUZZTIME:-10s}" ./internal/stitch/
	go test -run '^$' -fuzz '^FuzzImplRecord$' -fuzztime "${CI_FUZZTIME:-10s}" ./internal/pblock/
	go test -run '^$' -fuzz '^FuzzBoundMatchesInt31n$' -fuzztime "${CI_FUZZTIME:-10s}" ./internal/rng/
	go test -run '^$' -fuzz '^FuzzRouteCertificate$' -fuzztime "${CI_FUZZTIME:-10s}" ./internal/route/
}

stage_coverage() {
	# Coverage gate: the differential-verification core (oracle, pblock,
	# stitch, partition) must not silently lose test coverage. The floor is
	# recorded in scripts/coverage_floor.txt; raise it when coverage
	# genuinely improves.
	echo "==> coverage gate (internal/oracle, internal/pblock, internal/stitch, internal/partition)" >&2
	cover_out="$(mktemp)"
	go test -coverprofile="${cover_out}" ./internal/oracle/ ./internal/pblock/ ./internal/stitch/ ./internal/partition/ >/dev/null
	total="$(go tool cover -func="${cover_out}" | awk '/^total:/ { sub(/%/, "", $3); print $3 }')"
	rm -f "${cover_out}"
	floor="$(cat scripts/coverage_floor.txt)"
	echo "coverage gate: total ${total}% (floor ${floor}%)" >&2
	awk -v t="${total}" -v f="${floor}" 'BEGIN {
		if (t + 0 < f + 0) { print "coverage gate: below floor" > "/dev/stderr"; exit 1 }
	}'
}

stage_determinism() {
	# The multi-chain stitcher promises bit-identical results regardless of
	# core count; re-run its determinism suite under the race detector at a
	# parallelism the default run may not have exercised. The sharded
	# stitcher's shards run on the same obs.Each workers as the chains and
	# carry the same promise, so their determinism tests run in the same
	# configuration, and the partitioner's alongside. So do the pinned
	# trajectory digests (recorded before the kernels they cover were
	# rewritten, on any core count), the legality kernel's differential
	# test against the per-row reference, the move kernel's against the
	# swap that always lifted both footprints, and the analytic descent's
	# against the tiled, fanned-out descent it replaced, with the check
	# that the descent allocates nothing per iteration. The cost is exact:
	# every chain's running cost and cached nets equal a recomputation at
	# every barrier, and FinalCost equals the oracle's, all with ==.
	echo "==> stitch determinism under -race, GOMAXPROCS=4" >&2
	export GOMAXPROCS=4
	run_listed 'TestStitchTrajectoryPinned|TestLegalRowsMatchesFits|TestSwapSameBlockMatchesGeneral|TestDescentMatchesReference|TestDescentAllocsFlat|TestChains|TestSingleChainMatchesSerial|TestFinalCostAlwaysInTrace|TestAnalyticDeterministic|TestAnnealBackendIsDefault|TestShardedDeterministic|TestShardedGOMAXPROCSInvariant|TestCostUnitsExact' -race ./internal/stitch/
	# Every seeded loop above draws through internal/rng: its generator
	# and its precomputed bounds must draw what math/rand draws.
	run_listed 'TestRandMatchesMathRand|TestBoundMatchesInt31n' -race ./internal/rng/
	run_listed 'TestAssignDeterministic|TestAssignGOMAXPROCSInvariant' -race ./internal/partition/
	# The estimator's forest fits its trees on obs.Each too, and sums their
	# importance in tree order: one forest at GOMAXPROCS 1 and 4.
	run_listed 'TestRandomForestDeterministic' -race ./internal/ml/
	# The min-CF probe loop: a search probes serially through one plan (and
	# its recycled site tables) while the blocks around it run in parallel;
	# the bisect search's per-block probe counts are pinned, and a reused
	# plan must answer like a from-scratch placement on every rectangle of
	# every sweep. The one loop that runs the blocks hands every index to
	# exactly one lane, labelled or not. Every search steps grid ticks: a
	# sweep from an off-grid Start probes consecutive grid points, a
	# constant climb reports grid CFs, and an estimate that is not a
	# finite number > 0 is refused before any probe.
	run_listed 'TestBisectMatchesLinear|TestSweepCoversGrid|TestConstantClimbOnGrid|TestNaNEstimateRefused' -race ./internal/pblock/
	run_listed 'TestLanes' -race ./internal/obs/
	# The block path's one disk read-through, in every state a cache
	# directory can be in; and a label and a min-sweep block being one
	# record, whichever is written first.
	run_listed 'TestReadThrough|TestCacheOutcomeTable' -race ./internal/pblock/
	run_listed 'TestLabelAndBlockShareRecord' -race .
	# One outcome per lookup, booked once: a stored negative verdict is
	# one store in every ledger, and a joined in-flight search is one
	# singleflight hit, however the callers race. A result the byte
	# budget dropped comes back as a disk rebuild equal to the search.
	run_listed 'TestCacheLedgersAgree|TestSingleflight|TestBlockCacheBudget' -race .
	# ... and turn a probe away by counting exactly when the fill loop it
	# skips would have come up short, with the same count in the error.
	run_listed 'TestPlanReuseMatchesOneShotCNV|TestPlanReuseMatchesOneShotCorpus|TestLUTCountMatchesFill' -race ./internal/place/
	# The routing probe: a reused scratch answers like a fresh one, the
	# detour bound and the certificate agree with the two-pass probe, and
	# a capacity at a tile's exact demand forces the two-pass fallback.
	run_listed 'TestRouteScratchMatchesOneShot|TestDetourBoundMatchesReference|TestCertificateFallsBackAtCapacity' -race ./internal/route/
	# RunCNV is Compile of the cnvW1A1 design: the digests recorded before
	# the two pipelines were merged must reproduce, and the wrapper must
	# equal the direct compile field for field, lanes racing or not.
	# Blocks start largest first on however many workers pull them: the
	# order is a function of the design, and no worker count, cache or
	# singleflight wait may change a field of the result, and the stitch
	# fanning out on the same loop leaves the workers' lane labels alone.
	run_listed 'TestCompileMultiChainDeterministic|TestIterToReachFinalCost|TestRunCNVPinned|TestRunCNVIsCompile|TestLaneOrderLargestFirst|TestCompileScheduleInvariant|TestCompileReportsLowestFailedBlock|TestStitchKeepsWorkerLaneLabels' -race .
	# ... and the bytes the daemon serves for a result are pinned per job
	# shape, on any core count.
	run_listed 'TestWireResultPinned' -race ./api/v1/
	# ... and a job the daemon still holds serves the bytes it served
	# when it finished, its compact event log rendering as the events
	# were emitted.
	run_listed 'TestEventLogRendersIdentically|TestDaemonLiveSetBounded' -race ./cmd/macroflowd/
	unset GOMAXPROCS
}

stage_audits() {
	# Backend audits: every stitcher backend (all three) through Compile
	# under the full oracle audit (zero violations
	# required), the cnvW1A1 flow on the hybrid backend recounted end to
	# end, and the two-shard partitioned compile with the partition
	# assignment, every shard placement and the cut weight all recounted.
	echo "==> stitch backend oracle audits (-check full)" >&2
	run_listed 'TestCompileBackendsAuditClean|TestRunCNVHybridFullAudit|TestLegalizedPlacementsPassOracle|TestCompilePartitionedFullAudit' . ./internal/stitch/
}

stage_daemon() {
	# Telemetry plane: boot an in-process daemon, run a job, and require
	# GET /metrics to parse as strict Prometheus text with the service
	# series present — plus the flight recorder's anomaly-dump path, the
	# Recorder.Merge that folds a finished job into the service registry,
	# the estimator-drift histogram's exposition after that merge, the
	# histogram bucket order, /v1/stats equal to /metrics with the audit
	# loop on, every served series catalogued in DESIGN.md,
	# implement.strategy applied to the job's flow, one stitch-stage
	# sample per stitcher run, the live set bounded (retained jobs, the
	# compact event log, the block cache's byte budget, the typed gone),
	# and the listener's header and idle timeouts.
	echo "==> macroflowd telemetry plane (-race, /metrics exposition + flight recorder + merge + one ledger + live-set bounds + timeouts)" >&2
	run_listed 'TestMetricsEndpoint|TestFlightRecorder|TestRecorderMerge|TestRecordEstimatorDrift|TestWritePrometheusBucketOrder|TestStatsEqualMetrics|TestServiceSeriesCatalogued|TestDaemonSearchStrategy|TestStitchStageOneSamplePerRun|TestDaemonLiveSetBounded|TestEventLogRendersIdentically|TestBlockCacheBudget|TestServerTimeouts|TestDaemonRejectsBadRequests' -race -count=1 ./cmd/macroflowd/ ./internal/obs/ .

	# Daemon smoke: build the real macroflowd binary under -race, start it
	# on a random port, submit a compile over HTTP, assert the result is
	# byte-identical to the in-process flow, SIGTERM, and require a clean
	# drain (see TestDaemonBinarySmoke).
	echo "==> macroflowd daemon smoke (-race, SIGTERM drain)" >&2
	MACROFLOWD_SMOKE=1 go test -race -count=1 -run '^TestDaemonBinarySmoke$' ./cmd/macroflowd/
}

stage_benchsmoke() {
	# One iteration of each micro-benchmark in bench_test.go: the 13 a
	# test, a gate or a ROADMAP item reads, several of which assert their
	# input (a rejected probe, a bisect CF equal to linear's) before
	# timing. The paper's artifacts are cmd/experiments', the end-to-end
	# workloads cmd/bench's.
	echo "==> go test -bench . -benchtime 1x (smoke)" >&2
	go test -run '^$' -bench . -benchtime 1x .
}

stage_obsgate() {
	# Observability overhead gate: the instrumented implement path with a
	# nil recorder must stay within OBS_GATE_TOL (default 1%) of the
	# uninstrumented baseline. Each round runs both benchmarks back-to-back
	# in one process so load drift hits the pair equally, and the min ns/op
	# across rounds is compared — the min discards scheduler and GC noise,
	# which on a shared box dwarfs the few nil-checks being measured.
	# One op is a single probe of each of the 74 cnv blocks: about 10 ms
	# (29 ms before the placer's per-module work was hoisted into
	# place.Plan), so a sample is 32 ops to stay no shorter than the quarter
	# second the 1% tolerance was set against.
	# Raise OBS_GATE_ROUNDS or OBS_GATE_BENCHTIME on noisy boxes.
	echo "==> nil-recorder overhead gate" >&2
	go test -c -o /tmp/macroflow.obsgate.test .
	obs_bench=""
	round=0
	while [ "${round}" -lt "${OBS_GATE_ROUNDS:-8}" ]; do
		obs_bench="${obs_bench}
$(/tmp/macroflow.obsgate.test -test.run '^$' \
			-test.bench '^(BenchmarkImplementNoObs|BenchmarkImplementObsNil)$' \
			-test.benchtime "${OBS_GATE_BENCHTIME:-32x}")"
		round=$((round + 1))
	done
	rm -f /tmp/macroflow.obsgate.test
	echo "${obs_bench}" | grep '^Benchmark' >&2
	echo "${obs_bench}" | awk -v tol="${OBS_GATE_TOL:-0.01}" '
		/^BenchmarkImplementNoObs/  { if (base == 0 || $3 < base) base = $3 }
		/^BenchmarkImplementObsNil/ { if (inst == 0 || $3 < inst) inst = $3 }
		END {
			if (base == 0 || inst == 0) { print "obs gate: benchmarks missing" > "/dev/stderr"; exit 1 }
			ratio = inst / base
			printf "obs gate: nil-recorder min %.0f ns/op vs baseline min %.0f ns/op (ratio %.4f, tolerance %.2f)\n", inst, base, ratio, 1 + tol > "/dev/stderr"
			if (ratio > 1 + tol) { print "obs gate: nil-recorder overhead exceeds tolerance" > "/dev/stderr"; exit 1 }
		}'
}

if [ "$#" -eq 0 ]; then
	set -- ${stages}
fi
for stage in "$@"; do
	case " ${stages} " in
	*" ${stage} "*) ;;
	*)
		echo "ci: unknown stage ${stage} (stages: ${stages})" >&2
		exit 2
		;;
	esac
done
for stage in "$@"; do
	"stage_${stage}"
done
echo "ci: passed: $*" >&2
