GO ?= go

.PHONY: all ci fmt-check vet build test bench bench-smoke bench-json bench-diff gobench-smoke smoke scale-smoke metrics-smoke chaos soak loc clean

all: vet build test

# ci is the gate for pull requests: static checks (gofmt + vet), the
# deterministic chaos suite with the 1000-seed oracle sweep, the full
# race-enabled test suite (which covers the sampler and trace-propagation
# tests), a koshabench smoke run that
# fails unless the JSON output carries the latency-percentile fields, a
# /metrics exposition smoke against a live koshad, a smoke run of the
# benchmark harness, one iteration of every Go benchmark, and the ledger
# comparison of the two newest BENCH_*.json.
ci: fmt-check vet build
	$(MAKE) bench-diff
	$(MAKE) chaos
	$(GO) test -race ./...
	$(MAKE) smoke
	$(MAKE) scale-smoke
	$(MAKE) metrics-smoke
	$(MAKE) bench-smoke
	$(MAKE) gobench-smoke

# chaos runs the deterministic fault-injection harness under the race
# detector: the scripted failure scenarios, a randomized schedule, and the
# seed-replay determinism check (see internal/chaos). Every failure message
# carries the run's seed; replay it with
#   go test -race ./internal/chaos -run <TestName> -v
# Opt into the longer randomized soak with KOSHA_CHAOS_SOAK=<runs>, pinning
# its base seed with KOSHA_CHAOS_SEED=<seed>.
# Then the oracle sweep (internal/cluster: random operations through three
# mounts against chaos.Oracle) over seeds 1000-1999, which must all pass. It
# runs without the race detector (~1 min; ~8 min with it): the raced run of
# its committed seed list is part of `go test -race ./...`. Replay one seed
# with
#   go test ./internal/cluster -run 'TestOracleSeedSweep/seed<seed>$$' -seeds 1000 -v
chaos:
	$(GO) test -race -count=1 ./internal/chaos
	$(GO) test -count=1 ./internal/cluster -run TestOracleSeedSweep -seeds 1000

# soak is the gated slow target: the 500-node scale-out soak (internal/scale)
# replaying >= 10K Purdue-trace operations under diurnal availability churn
# with the overlay invariant oracle enforced every epoch, followed by the
# maintenance scrub soak (internal/chaos) that injects silent corruption in
# batches and requires the anti-entropy scrub to converge every batch. Each
# run's seed is logged; replay a failure with
#   KOSHA_SCALE_SOAK=1 KOSHA_SCALE_SEED=<seed> go test ./internal/scale -run TestSoakLarge -v
#   KOSHA_MAINT_SOAK=1 KOSHA_MAINT_SEED=<seed> go test ./internal/chaos -run TestMaintScrubSoak -v
soak:
	KOSHA_SCALE_SOAK=1 $(GO) test -count=1 -timeout 30m ./internal/scale -run TestSoakLarge -v
	KOSHA_MAINT_SOAK=1 $(GO) test -count=1 -timeout 30m ./internal/chaos -run TestMaintScrubSoak -v

# scale-smoke is the quick (<=100-node) scale-sweep variant wired into ci:
# two soak points plus the hops-vs-N JSON fields the docs table is built from,
# and the message cost of listing "/", which must be the same at every point.
scale-smoke:
	@out=$$($(GO) run ./cmd/koshabench -exp scale -quick -format json); \
	for f in mean_route_hops probe_mean_hops mean_join_ms replica_fanout root_readdir_msgs; do \
		echo "$$out" | grep -q "\"$$f\"" || { echo "scale-smoke: missing $$f in koshabench JSON" >&2; exit 1; }; \
	done; \
	n=$$(echo "$$out" | grep '"root_readdir_msgs"' | sort -u | wc -l); \
	[ "$$n" -eq 1 ] || { echo "scale-smoke: root_readdir_msgs varies with the node count:" >&2; echo "$$out" | grep -E '"(nodes|root_readdir_msgs)"' >&2; exit 1; }; \
	echo "scale-smoke: koshabench scale JSON ok, root listing cost flat"

# smoke runs the quick variant of each experiment whose JSON the docs tables
# are built from, and fails unless every named field is in the output.
SMOKE_FIELDS = \
	latency:p50_ms,p95_ms,p99_ms,mean_route_hops \
	sync:full_bytes,delta_bytes,delta_pct,files_sent \
	dedup:dedup_ratio,stored_bytes,edit_delta_bytes,promote_delta_bytes \
	stream:seq_rpcs_base,seq_rpcs_stream,read_rpc_ratio,write_rpc_ratio,seq_mbps_stream \
	rebalance:skew_before,skew_after,moved_bytes,moved_fraction,high_water
smoke:
	@for pair in $(SMOKE_FIELDS); do \
		exp=$${pair%%:*}; \
		out=$$($(GO) run ./cmd/koshabench -exp $$exp -quick -format json) || exit 1; \
		for f in $$(echo $${pair#*:} | tr , ' '); do \
			echo "$$out" | grep -q "\"$$f\"" || { echo "smoke: missing $$f in koshabench $$exp JSON" >&2; exit 1; }; \
		done; \
		echo "smoke: koshabench $$exp JSON ok"; \
	done

# metrics-smoke spawns a real koshad with the pprof/metrics listener on and
# asserts the Prometheus exposition carries an overlay-health gauge and a
# per-op latency histogram.
metrics-smoke:
	@$(GO) build -o /tmp/koshad-smoke ./cmd/koshad; \
	/tmp/koshad-smoke -listen 127.0.0.1:7391 -pprof 127.0.0.1:7392 -seed 7 >/dev/null 2>&1 & pid=$$!; \
	trap 'kill $$pid 2>/dev/null' EXIT; \
	out=""; \
	for i in $$(seq 1 50); do \
		out=$$(curl -sf http://127.0.0.1:7392/metrics) && break; \
		sleep 0.2; \
	done; \
	[ -n "$$out" ] || { echo "metrics-smoke: /metrics never answered" >&2; exit 1; }; \
	echo "$$out" | grep -q '^kosha_overlay_leafset_size ' || { echo "metrics-smoke: overlay-health gauge missing" >&2; exit 1; }; \
	echo "$$out" | grep -q '^# TYPE kosha_op_lookup_ns histogram' || { echo "metrics-smoke: latency histogram missing" >&2; exit 1; }; \
	echo "metrics-smoke: /metrics exposition ok"

fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt: needs formatting:" >&2; echo "$$unformatted" >&2; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test -short -race ./...

# bench runs the concurrency-scaling benchmark (sweep goroutine counts to
# see the sharded hot path scale) alongside the cache-ablation benchmark,
# the full-vs-delta replica sync comparison, the content-addressed chunk
# store comparison (dedup ratio, chunk-delta edits, promote repair), and
# the large-file streaming comparison (stop-and-wait vs pipelined
# readahead + write-back).
bench:
	$(GO) test -run xxx -bench 'BenchmarkParallelMetadata' -cpu=1,2,4,8 -benchmem .
	$(GO) test -run xxx -bench 'BenchmarkAblationMetadataCache' -short -benchtime=1x .
	$(GO) run ./cmd/koshabench -exp sync
	$(GO) run ./cmd/koshabench -exp dedup
	$(GO) run ./cmd/koshabench -exp stream

# bench-smoke keeps the benchmark harness (bench/, BENCHMARK.json) building
# and correct against the packages it drives: its own determinism pins, then
# one small stream round and one small meta round (32 nodes, client caches
# off: every path op is a LOOKUPPATH) whose exit code is the byte-exact
# oracle's verdict.
bench-smoke:
	$(GO) test ./bench
	$(GO) run ./bench --workload stream -quick
	$(GO) run ./bench --workload meta -quick

# bench-json records the benchmark's trajectory: the three workloads at seed 1,
# end-to-end (--trace 0) and per-layer (--trace 1), one result line each, in
# BENCH_<pr>.json at the repo root. A perf claim is a diff of two of these
# files. Everything but setup_s, heap_live_mb and the wall.* / ns / us
# per-layer metrics is a function of the seed (the two alloc metrics to about
# four digits); BENCH_SECONDS only bounds how long the wall-clock ones sample.
# BENCH_PR defaults to one past the highest committed file, so a forgotten
# argument never overwrites a previous PR's ledger.
#   make bench-json BENCH_PR=22
BENCH_PR ?= $(shell ls BENCH_*.json 2>/dev/null | sed 's/[^0-9]//g' | sort -n | awk 'END {print $$1 + 1}')
BENCH_SECONDS ?= 5
bench-json:
	@out=BENCH_$(BENCH_PR).json; tmp=$$out.tmp; \
	printf '{"pr": $(BENCH_PR), "seed": 1, "seconds": $(BENCH_SECONDS), "runs": {' > $$tmp; \
	sep=''; \
	for w in mab meta stream; do for t in 0 1; do \
		line=$$($(GO) run ./bench --workload $$w --seed 1 --seconds $(BENCH_SECONDS) --trace $$t | tail -n 1); \
		case "$$line" in '{"correct":true,'*) ;; *) echo "bench-json: $$w --trace $$t: $$line" >&2; rm -f $$tmp; exit 1;; esac; \
		printf '%s\n"%s.trace%s": %s' "$$sep" $$w $$t "$$line" >> $$tmp; sep=','; \
	done; done; \
	printf '\n}}\n' >> $$tmp; mv $$tmp $$out; echo "bench-json: wrote $$out"

# bench-diff compares the two highest-numbered BENCH_*.json: the end-to-end
# metrics that are a pure function of the seed must not move between them on
# any workload's --trace 0 run, unless the last line of CHANGES.md (the PR's
# own) names the workload and the metric together, as `meta` `rpcs_per_op`:
# a claim about one workload excuses nothing on another. A file comparison:
# no benchmark runs.
SEED_EXACT = sim_ms_per_op sim_vs_nfs_ratio rpcs_per_op net_bytes_per_user_byte
bench-diff:
	@set -- $$(ls BENCH_*.json | sort -t_ -k2 -n | tail -n 2); \
	[ $$# -eq 2 ] || { echo "bench-diff: fewer than two BENCH_*.json" >&2; exit 1; }; \
	claimed=$$(tail -n 1 CHANGES.md); fail=0; \
	for w in mab meta stream; do for m in $(SEED_EXACT); do \
		a=$$(grep "^\"$$w.trace0\"" $$1 | grep -o "\"$$m\":{\"value\":[^,]*"); \
		b=$$(grep "^\"$$w.trace0\"" $$2 | grep -o "\"$$m\":{\"value\":[^,]*"); \
		if [ -n "$$a" ] && [ "$$a" = "$$b" ]; then continue; fi; \
		case "$$claimed" in \
		*"\`$$w\` \`$$m\`"*) echo "bench-diff: $$w $$m moved, as CHANGES.md says: $${a##*:} -> $${b##*:}";; \
		*) echo "bench-diff: $$w $$m moved from $$1 to $$2 and CHANGES.md does not say \`$$w\` \`$$m\`: $${a##*:} -> $${b##*:}" >&2; fail=1;; \
		esac; \
	done; done; \
	[ $$fail -eq 0 ] && echo "bench-diff: $$1 -> $$2: no unclaimed drift in the seed-exact end-to-end metrics"; exit $$fail

# loc prints the sizes CHANGES.md tracks: non-test Go outside bench/, the
# shares of it in internal/core, internal/nfs, internal/repl and
# internal/maint, the number of core.Config fields, the methods of the
# replication engine's two interfaces (repl.Peer, repl.Overlay), and the wire
# surface countable from the source: rows of the two dispatch tables and
# nfs.Proc constants.
TABLE_ROWS = awk -v t="$$t" '$$0 ~ "^var " t " = serviceTable" {in_t=1; next} in_t && /^}/ {exit} in_t && /^\t[a-zA-Z]+:/ {n++} END {print n}'
IFACE_METHODS = awk -v t="$$t" '$$0 ~ "^type " t " interface" {in_t=1; next} in_t && /^}/ {exit} in_t && /^\t[A-Z][A-Za-z0-9]*\(/ {n++} END {print n}'
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l | xargs echo "non-test Go lines outside bench/:"; \
	for p in core nfs repl maint; do \
		find internal/$$p -name '*.go' -not -name '*_test.go' | xargs cat | wc -l | xargs echo "non-test Go lines in internal/$$p:"; \
	done; \
	awk '/^type Config struct/ {in_cfg=1; next} in_cfg && /^}/ {exit} in_cfg && /^\t[A-Z][A-Za-z0-9]*[ \t]+[^ \t]/ {n++} END {print "core.Config fields:", n}' internal/core/node.go; \
	t=Peer; echo "repl.Peer methods: $$($(IFACE_METHODS) internal/repl/engine.go)"; \
	t=Overlay; echo "repl.Overlay methods: $$($(IFACE_METHODS) internal/repl/engine.go)"; \
	t=koshaProcs; echo "koshaProcs rows: $$($(TABLE_ROWS) internal/core/service.go)"; \
	t=ctlProcs; echo "ctlProcs rows: $$($(TABLE_ROWS) internal/core/ctl.go)"; \
	grep -c '^[[:space:]]Proc[A-Za-z]*[[:space:]]*Proc = ' internal/nfs/proto.go | xargs echo "nfs.Proc constants:"

# gobench-smoke runs every Go benchmark in the module once (the root ones
# are the four ablations and the parallel-metadata check: seconds in all).
gobench-smoke:
	$(GO) test -short -bench=. -benchtime=1x ./...

clean:
	$(GO) clean ./...
