// Command bench is the one benchmark of pimentod: four workloads, seven
// gated end-to-end metrics per workload, and a traced per-layer replay.
// It starts one fresh daemon per workload, loads the generated corpus
// through the public API, drives it from this one process over at most
// as many connections as the machine has CPUs, checks every answer
// against the sequential reference path, and prints every metric by
// name with its unit. bench/README.md is the manual.
//
//	bash bench/run.sh --seed 1                       # all workloads, end to end
//	bash bench/run.sh --seed 1 --trace 1             # all workloads, per layer
//	bash bench/run.sh --seed 1 --workload ft_single  # one workload
//	bash bench/run.sh --seed 1 --repeat 5            # steadiness report
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

// setUps is how many times each run repeats set-up; setup_s is their
// median.
const setUps = 5

func numWorkers() int { return runtime.GOMAXPROCS(0) }

func main() {
	var (
		name     = flag.String("workload", "", "workload to run (default: all four, in order)")
		seed     = flag.Int64("seed", 1, "seed of every generated input")
		seconds  = flag.Int("seconds", defaultSeconds, "length of the measured window")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced replay")
		repeat   = flag.Int("repeat", 0, "run every workload this many times (seeds seed, seed+1, ...) and report each gated metric's spread against its bound")
		pimentod = flag.String("pimentod", ".bench_build/pimentod", "the daemon binary (bench/run.sh builds it from the tree)")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) || *repeat < 0 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*name, *seed, *seconds, *trace == 1, *repeat, *pimentod); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errIncorrect is returned after the results are printed when some
// operation failed or answered wrongly.
var errIncorrect = fmt.Errorf("some operations failed or answered wrongly; see INCORRECT above")

func run(name string, seed int64, seconds int, trace bool, repeat int, pimentod string) error {
	names := workloadNames
	if name != "" {
		names = []string{name}
	}
	golden, err := loadGolden(seed)
	if err != nil {
		return err
	}
	env, err := json.Marshal(newEnvelope(seed))
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", env)

	b := &bench{
		launch: spawnDaemon(pimentod),
		sc:     fullScale,
		window: time.Duration(seconds) * time.Second,
		golden: golden,
		outDir: "bench/out",
	}
	if repeat > 0 {
		return b.repeat(names, seed, repeat)
	}
	ok := true
	for _, n := range names {
		res, err := b.one(n, seed, trace)
		if err != nil {
			return fmt.Errorf("%s: %w", n, err)
		}
		specs := endToEnd
		if trace {
			specs = perLayer
		}
		if err := printResult(os.Stdout, res, specs); err != nil {
			return err
		}
		ok = ok && res.correct()
	}
	if !ok {
		return errIncorrect
	}
	return nil
}

// bench holds what every run of a session shares.
type bench struct {
	launch launcher
	sc     scale
	window time.Duration
	golden map[string]string
	outDir string // where the traced run writes its spans
}

// one generates and measures one workload once.
func (b *bench) one(name string, seed int64, trace bool) (*result, error) {
	w, err := buildWorkload(name, seed, b.sc, b.window)
	if err != nil {
		return nil, err
	}
	opt := runOptions{window: b.window, setups: setUps, golden: b.golden}
	if trace {
		// The traced run needs the window only for its live counts.
		opt.setups = 1
	}
	res, err := runEndToEnd(w, b.launch, opt)
	if err != nil || !trace {
		return res, err
	}
	return res, tracedReplay(res, w, seed, b.sc.replay, b.outDir)
}

// goldenFile pins, for one seed at full scale, the digest of each
// workload's reference answers: the oracle and the daemon share most of
// their code, so a change that alters both the same way is caught only
// by a value written down earlier.
type goldenFile struct {
	Seed    int64             `json:"seed"`
	Digests map[string]string `json:"digests"`
}

// loadGolden returns the pinned digests when seed is the pinned seed.
func loadGolden(seed int64) (map[string]string, error) {
	b, err := os.ReadFile("bench/golden.json")
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	var g goldenFile
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("bench/golden.json: %w", err)
	}
	if g.Seed != seed {
		return nil, nil
	}
	return g.Digests, nil
}
