# Developer entry points. `make ci` is the full gate: formatting, vet,
# build, tests (plain, and under -race at three processor counts),
# coverage floors, the invariant analyzers and the benchmark's smoke.
# Every test runs in `test` and `race`; there are no -run subsets to
# keep in step with the suites.

GO ?= go

.PHONY: ci fmt-check vet build test race cover loc fuzz-smoke bench-test serving-smoke profile analyze analyze-test

ci: fmt-check vet build test race cover analyze analyze-test bench-test serving-smoke

fmt-check:
	@files="$$(gofmt -l .)"; \
	if [ -n "$$files" ]; then \
		echo "gofmt needed on:"; echo "$$files"; exit 1; \
	fi

# The invariant checker (tools/analyze, its own module). The binary is
# rebuilt only when its sources change; go vet caches per-package
# results against a hash of the binary, so a clean re-run is cheap.
ANALYZE := tools/analyze/bin/pimento-analyze

$(ANALYZE): $(shell find tools/analyze -name '*.go' -not -path '*/testdata/*') tools/analyze/go.mod
	cd tools/analyze && $(GO) build -o bin/pimento-analyze ./cmd/pimento-analyze

# vet runs the standard analyzers over the main module and the analyzer
# module; the pimento suite is `analyze`, run once per `make ci`.
vet:
	$(GO) vet ./...
	cd tools/analyze && $(GO) vet ./...

# The zero-finding gate and the fix-list in one: `go vet -vettool`
# relays every pimento-analyze finding, across all packages, as a vet
# failure, so any unsuppressed violation fails ci. The suppressions in
# effect are `git grep -n '//pimento:allow'`.
analyze: $(ANALYZE)
	$(GO) vet -vettool=$(abspath $(ANALYZE)) ./...

# The analyzer suite's own tests: analysistest fixtures per analyzer
# plus the end-to-end vettool-protocol test over testdata/badmod and
# the repository itself.
analyze-test:
	cd tools/analyze && $(GO) test ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The race suite at one, two and four processors: a tear that cannot
# interleave on one core (the histogram count/bucket skew that kept
# tier-1 red on every multi-core box) shows up at two or four.
race:
	for p in 1 2 4; do GOMAXPROCS=$$p $(GO) test -race ./... || exit 1; done

# Coverage floors on the layers the serving path leans on. The floor is
# a gate, not a target: new handlers and cache paths ship with tests.
COVER_FLOOR := 80
cover:
	@for pkg in ./internal/server/ ./internal/plan/ ./internal/analysis/ ./internal/corpus/ ./internal/registry/ ./internal/twig/ ./internal/engine/ ./internal/tpq/ ./internal/xmldoc/ ./internal/index/; do \
		pct="$$($(GO) test -count=1 -cover $$pkg | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')"; \
		if [ -z "$$pct" ]; then echo "cover: no coverage output for $$pkg"; exit 1; fi; \
		ok="$$(awk "BEGIN{print ($$pct >= $(COVER_FLOOR)) ? 1 : 0}")"; \
		if [ "$$ok" != 1 ]; then \
			echo "cover: $$pkg at $$pct% is below the $(COVER_FLOOR)% floor"; exit 1; \
		fi; \
		echo "cover: $$pkg $$pct% (floor $(COVER_FLOOR)%)"; \
	done

# The ROADMAP's size metric (north star 2): non-test Go lines of the
# program. Every PR reports this number in CHANGES.md.
loc:
	@find internal cmd pimento.go -name '*.go' -not -name '*_test.go' | xargs cat | wc -l

# A short fuzz pass over every fuzz target, twelve in all: the three
# parsers (query, XML, profile), the XML scanner against its
# encoding/xml oracle, the /search and PUT/DELETE /docs
# handlers, the profile vet, the Section 5 analyses against their
# oracle, the scan-vs-twigjoin access-path differential, the index
# build against its map-and-append oracle, the tier source's
# rank-set members against its galloping-merge oracle and the corpus
# fan-out against its per-document oracle.
# Catches regressions in input hardening, join correctness and index
# layout without the open-ended runtime of a real fuzz campaign.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -fuzz FuzzParse -fuzztime $(FUZZTIME) -run '^$$' ./internal/tpq/
	$(GO) test -fuzz FuzzParseXML -fuzztime $(FUZZTIME) -run '^$$' ./internal/xmldoc/
	$(GO) test -fuzz FuzzParseMatchesOracle -fuzztime $(FUZZTIME) -run '^$$' ./internal/xmldoc/
	$(GO) test -fuzz FuzzParseProfile -fuzztime $(FUZZTIME) -run '^$$' ./internal/profile/
	$(GO) test -fuzz FuzzSearchHandler -fuzztime $(FUZZTIME) -run '^$$' ./internal/server/
	$(GO) test -fuzz FuzzDocUpdate -fuzztime $(FUZZTIME) -run '^$$' ./internal/server/
	$(GO) test -fuzz FuzzVetProfile -fuzztime $(FUZZTIME) -run '^$$' ./internal/analysis/
	$(GO) test -fuzz FuzzAnalysisMatchesOracle -fuzztime $(FUZZTIME) -run '^$$' ./internal/analysis/
	$(GO) test -fuzz FuzzTwigJoin -fuzztime $(FUZZTIME) -run '^$$' ./internal/twig/
	$(GO) test -fuzz FuzzBuildMatchesOracle -fuzztime $(FUZZTIME) -run '^$$' ./internal/index/
	$(GO) test -fuzz FuzzTierMembers -fuzztime $(FUZZTIME) -run '^$$' ./internal/plan/
	$(GO) test -fuzz FuzzFanoutMatchesOracle -fuzztime $(FUZZTIME) -run '^$$' ./internal/corpus/

# The benchmark (bench/, its own module, not part of `go test ./...`)
# compiles against internal packages: a change that breaks its compile
# surface or its own tests fails here instead of in the acceptance run.
# One iteration of each root figure benchmark family rides along (Fig. 6
# at 101K, the four Fig. 7 Push cells, the other queries, both ablations), so the
# harness EXPERIMENTS.md's tables come from cannot rot: every line must
# report pruned/op and candidates/op, and the Fig. 6/7 lines the cut and
# self-time metrics. The twig-access ablation's full-join arms must feed
# the chain more than k + 1 = 11 candidates and prune nothing (k covers
# every match): an arm that stops at the (k+1)-th match times the stop,
# not the access path. A Fig. 6/7 line whose ftjoin drops a candidate
# (ftjoin_pruned/op > 0) means the twig join no longer streams only the
# elements that hold the required phrase. The Fig. 7 Push lines at three
# and four KORs must feed their chain fewer than 1,000 candidates/op
# (they read 157 and 10): the tiered source stops at the first tier that
# cannot reach the top k, where the untiered join fed all 8,322. The
# lines at one and two KORs must feed fewer than 500 and 100 (they read
# 37 and 10): the source visits a tier's persons aged 33 first and skips
# the tiers outside that class once k answers rank above them, where
# visiting them fed 3,163 and 912.
FIG_BENCH := 'Fig6/size=101K/|Fig7/plan=PtpkP/kors=[1-4]/par=1$$|ExtraQueries|Ablation'
bench-test:
	cd bench && $(GO) vet . && $(GO) test ./...
	@out=$$($(GO) test -run '^$$' -bench $(FIG_BENCH) -benchtime 1x .) || { echo "$$out"; exit 1; }; \
	echo "$$out" | grep '^Benchmark'; \
	echo "$$out" | awk '/^Benchmark/ { \
		n++; fam[substr($$1, 10, index($$1, "/") - 10)] = 1; need = "pruned/op candidates/op"; \
		if ($$1 ~ /Fig[67]/) need = need " vor_in/op sort_in/op ftjoin_pruned/op ftjoin_self_ms kor_self_ms vor_self_ms total_self_ms"; \
		split(need, m, " "); \
		for (i in m) if (index($$0, " " m[i]) == 0) { print "bench-test: " $$1 " reports no " m[i]; bad = 1 } \
		c = 0; p = 0; ft = 0; for (i = 2; i < NF; i++) { if ($$(i + 1) == "candidates/op") c = $$i; if ($$(i + 1) == "pruned/op") p = $$i; if ($$(i + 1) == "ftjoin_pruned/op") ft = $$i } \
		if ($$1 ~ /^BenchmarkAblationTwigAccess\/(scan|twig)(-[0-9]+)?$$/ && (c <= 11 || p > 0)) { print "bench-test: " $$1 " stops early: " c " candidates, " p " pruned"; bad = 1 } \
		if ($$1 ~ /Fig[67]/ && ft > 0) { print "bench-test: " $$1 " ftjoin drops " ft " candidates the twig join streamed"; bad = 1 } \
		if ($$1 ~ /^BenchmarkFig7\/plan=PtpkP\/kors=4\/par=1(-[0-9]+)?$$/ && c >= 1000) { print "bench-test: " $$1 " feeds the chain " c " candidates: the tiered source did not stop"; bad = 1 } \
		if ($$1 ~ /^BenchmarkFig7\/plan=PtpkP\/kors=1\/par=1(-[0-9]+)?$$/ && c >= 500) { print "bench-test: " $$1 " feeds the chain " c " candidates: the tiered source did not skip a tier outside the class"; bad = 1 } \
		if ($$1 ~ /^BenchmarkFig7\/plan=PtpkP\/kors=2\/par=1(-[0-9]+)?$$/ && c >= 100) { print "bench-test: " $$1 " feeds the chain " c " candidates: the tiered source did not skip a tier outside the class"; bad = 1 } \
		if ($$1 ~ /^BenchmarkFig7\/plan=PtpkP\/kors=3\/par=1(-[0-9]+)?$$/ && c >= 1000) { print "bench-test: " $$1 " feeds the chain " c " candidates: the tiered source did not stop"; bad = 1 } \
	} END { \
		split("Fig6 Fig7 ExtraQueries AblationKOROrder AblationTwigAccess", f, " "); \
		for (i in f) if (!(f[i] in fam)) { print "bench-test: no Benchmark" f[i] " line"; bad = 1 } \
		exit bad }'

# Fixed-seed serving smoke for CI: two seconds of the benchmark's
# cached_mix workload against a freshly built pimentod. Every answer is
# checked against the sequential reference path; a wrong or failed one
# exits non-zero. Catches scheduler deadlocks and answer drift, not perf.
serving-smoke:
	bash bench/run.sh --workload cached_mix --seed 1 --seconds 2

# Profiles pimentod under a Fig. 7-style workload: starts the daemon
# with pprof enabled on -debug-addr, drives repeated personalized
# searches against a generated XMark document, and saves CPU/heap
# profiles next to the script's output directory.
profile:
	scripts/profile.sh
