// Command bench is the repository's benchmark: four extended-transaction
// workloads run as closed loops, five end-to-end metrics and a failure
// count per workload, and a separate traced run that prices every seam of
// cdr → orb → remote → core → hls → ots + wal and holds their sum against
// the end-to-end latency. README.md in this directory has the tables.
//
// One run, as the driver of BENCHMARK.json makes it:
//
//	bash bench/run.sh --workload durable-2pc --seed 1 --seconds 10 --trace 0
//
// Every workload several times plus its traced run, into a result file:
//
//	bash bench/run.sh -suite -runs 5 -out A.json
//
// Two result files against the bounds:
//
//	bash bench/run.sh -compare A.json B.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	maybePeer()

	workloadName := flag.String("workload", "", "workload to run: local-2pc, remote-activity, durable-2pc or replicated-2pc")
	seed := flag.Int64("seed", 1, "seed of the generated activity names and payloads")
	secs := flag.Float64("seconds", 10, "length of the measured window; the warm-up is a tenth of it")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics, 0 the timed run and the end-to-end metrics")
	binDir := flag.String("bin", filepath.Join(".bench_build", "bin"), "directory holding the activityd binary run.sh built")
	tmpRoot := flag.String("tmp", filepath.Join(".bench_build", "tmp"), "directory for the write-ahead logs; its filesystem sets the fsync cost")
	buildMS := flag.Int64("build-ms", 0, "time run.sh spent building, printed as build_s")
	suite := flag.Bool("suite", false, "run every workload -runs times plus one traced run each and write -out")
	runs := flag.Int("runs", 5, "timed runs per workload in a suite, each with its own seed")
	out := flag.String("out", "", "result file a suite writes")
	compare := flag.Bool("compare", false, "compare two result files given as arguments")
	flag.Parse()

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = errors.New("-compare takes two result files")
		} else {
			err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		}
	case *suite:
		err = runSuite(suiteConfig{runs: *runs, seed: *seed, seconds: *secs, binDir: *binDir, tmpRoot: *tmpRoot,
			buildS: float64(*buildMS) / 1e3, out: *out})
	default:
		err = runOne(*workloadName, runConfig{seed: *seed, seconds: *secs, binDir: *binDir, tmpRoot: *tmpRoot, out: os.Stdout},
			*trace != 0, float64(*buildMS)/1e3)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne makes the one run the BENCHMARK.json contract describes and
// prints its result object as the last line of standard output.
func runOne(name string, c runConfig, traced bool, buildS float64) error {
	var ok bool
	if c.w, ok = findWorkload(name); !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if c.seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	if err := os.MkdirAll(c.tmpRoot, 0o755); err != nil {
		return err
	}
	fmt.Printf("build_s %.3f (compiling bench and activityd; not a metric)\n", buildS)
	run := runTimed
	if traced {
		run = runTraced
	}
	res, err := run(c)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
