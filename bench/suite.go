package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// suiteFile is a result file: what makes two of them comparable, and per
// workload every timed run, their medians and spreads, and the traced run.
type suiteFile struct {
	Header    suiteHeader              `json:"header"`
	Workloads map[string]*suiteResults `json:"workloads"`
}

type suiteHeader struct {
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	GitCommit  string         `json:"git_commit"`
	Kernel     string         `json:"kernel"`
	WALFS      string         `json:"wal_tmp_filesystem"`
	Seed       int64          `json:"first_seed"`
	Runs       int            `json:"timed_runs_per_workload"`
	Callers    map[string]int `json:"callers"`
	WarmupS    float64        `json:"warmup_s"`
	TimedS     float64        `json:"timed_s"`
	TracedS    float64        `json:"traced_s"`
	BuildS     float64        `json:"build_s"`
	Network    string         `json:"network"`
	Disk       string         `json:"disk"`
}

type suiteResults struct {
	Runs   []suiteRun         `json:"runs"`
	Median map[string]float64 `json:"median"`
	Spread map[string]float64 `json:"spread"` // interquartile distance as a share of the median
	Layers map[string]float64 `json:"layers"`
}

type suiteRun struct {
	Seed      int64              `json:"seed"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	FailRatio float64            `json:"fail_ratio"`
	Metrics   map[string]float64 `json:"metrics"`
}

type suiteConfig struct {
	runs            int
	seed            int64
	seconds         float64
	binDir, tmpRoot string
	buildS          float64
	out             string
}

func newHeader(c suiteConfig) suiteHeader {
	h := suiteHeader{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitCommit:  "unknown",
		Kernel:     "unknown",
		WALFS:      filesystemOf(c.tmpRoot),
		Seed:       c.seed,
		Runs:       c.runs,
		Callers:    map[string]int{},
		WarmupS:    c.seconds * warmupShare,
		TimedS:     c.seconds,
		TracedS:    c.seconds,
		BuildS:     c.buildS,
		Network:    "all traffic is loopback TCP with no injected delay; real-network and scale-out figures are unmeasured",
		Disk:       "fsync cost is that of this machine's disk under the WAL temp dir",
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.GitCommit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	for _, w := range workloads {
		h.Callers[w.name] = w.callers
	}
	return h
}

// filesystemOf names the filesystem holding dir, by its statfs magic.
func filesystemOf(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext2/3/4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return "0x" + strconv.FormatUint(uint64(uint32(st.Type)), 16)
}

// runSuite makes every workload's timed runs, each in a process of its own
// with a seed of its own, then its traced run, and writes the result file.
// Any gate violation ends it with no file written.
func runSuite(c suiteConfig) error {
	if c.out == "" {
		return errors.New("-suite needs -out")
	}
	if c.runs < 1 {
		return errors.New("-runs must be at least 1")
	}
	if err := os.MkdirAll(c.tmpRoot, 0o755); err != nil {
		return err
	}
	file := suiteFile{Header: newHeader(c), Workloads: map[string]*suiteResults{}}
	for _, w := range workloads {
		r := &suiteResults{Median: map[string]float64{}, Spread: map[string]float64{}, Layers: map[string]float64{}}
		series := map[string][]float64{}
		for i := 0; i < c.runs; i++ {
			seed := c.seed + int64(i)
			res, err := c.child(w.name, seed, false)
			if err != nil {
				return err
			}
			run := suiteRun{Seed: seed, Attempted: res.Attempted, Failed: res.Failed,
				FailRatio: float64(res.Failed) / float64(res.Attempted), Metrics: map[string]float64{}}
			for name, m := range res.Metrics {
				run.Metrics[name] = m.Value
				series[name] = append(series[name], m.Value)
			}
			r.Runs = append(r.Runs, run)
		}
		for name, vs := range series {
			r.Median[name] = median(vs)
			r.Spread[name] = spread(vs)
		}
		res, err := c.child(w.name, c.seed, true)
		if err != nil {
			return err
		}
		for name, m := range res.Metrics {
			r.Layers[name] = m.Value
		}
		file.Workloads[w.name] = r
	}
	b, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(c.out, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\n%-16s %-16s %14s %8s\n", "workload", "metric", "median", "spread")
	for _, w := range workloads {
		for _, m := range endToEndMetrics {
			r := file.Workloads[w.name]
			fmt.Printf("%-16s %-16s %14.3f %7.1f%%\n", w.name, m.name, r.Median[m.name], 100*r.Spread[m.name])
		}
	}
	fmt.Println("wrote", c.out)
	return nil
}

// child makes one run in a fresh process, passes its report through and
// returns the result object of its last line.
func (c suiteConfig) child(name string, seed int64, traced bool) (result, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(os.Args[0], "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(c.seconds, 'g', -1, 64), "-trace", trace, "-bin", c.binDir, "-tmp", c.tmpRoot)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	os.Stdout.Write(out)
	if err != nil {
		return result{}, fmt.Errorf("%s seed %d: %w", name, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("%s seed %d: result line: %w", name, seed, err)
	}
	return res, nil
}
