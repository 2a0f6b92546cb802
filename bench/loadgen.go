package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// window is what one closed-loop measurement produced.
type window struct {
	perCaller [][]int64 // caller-observed begin→outcome latency of every correct unit, ns, in completion order
	attempted int64
	failed    int64
	firstErr  error
	elapsed   time.Duration
	cpu       time.Duration // user+system CPU of this process and its child over the window
}

func (w window) ok() int64 { return w.attempted - w.failed }

// sorted returns every caller's samples merged and sorted.
func (w window) sorted() []int64 {
	var all []int64
	for _, lat := range w.perCaller {
		all = append(all, lat...)
	}
	return sortedCopy(all)
}

// drive runs unit as a closed loop from callers goroutines for d: each
// caller issues its next unit only when the previous one has its outcome.
// A unit that returns an error is a failure: it has no latency sample and
// does not count as completed. childPID (0 for none) is included in the
// window's CPU.
func drive(callers int, d time.Duration, childPID int, unit func(caller, seq int) error) window {
	type callerResult struct {
		lat       []int64
		attempted int64
		failed    int64
		firstErr  error
	}
	results := make([]callerResult, callers)
	cpu0 := cpuTime(childPID)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := &results[c]
			r.lat = make([]int64, 0, 1<<16)
			for seq := 0; ; seq++ {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				err := unit(c, seq)
				r.attempted++
				if err != nil {
					r.failed++
					if r.firstErr == nil {
						r.firstErr = err
					}
					continue
				}
				r.lat = append(r.lat, int64(time.Since(t0)))
			}
		}()
	}
	wg.Wait()
	w := window{elapsed: time.Since(start), cpu: cpuTime(childPID) - cpu0}
	for _, r := range results {
		w.perCaller = append(w.perCaller, r.lat)
		w.attempted += r.attempted
		w.failed += r.failed
		if w.firstErr == nil {
			w.firstErr = r.firstErr
		}
	}
	return w
}

// driftRatio is the median latency of the last tenth of every caller's
// samples over that of the first tenth: 1 when latency does not change as
// the run goes on.
func (w window) driftRatio() float64 {
	var first, last []int64
	for _, lat := range w.perCaller {
		n := len(lat) / 10
		if n == 0 {
			continue
		}
		first = append(first, lat[:n]...)
		last = append(last, lat[len(lat)-n:]...)
	}
	if len(first) == 0 {
		return 0
	}
	f := percentile(sortedCopy(first), 0.5)
	if f == 0 {
		return 0
	}
	return float64(percentile(sortedCopy(last), 0.5)) / float64(f)
}

// cpuTime is the user+system CPU this process has used so far plus that of
// the process pid (0 for none).
func cpuTime(pid int) time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	t := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	if pid != 0 {
		t += procCPU(pid)
	}
	return t
}

// clockTick is the kernel's USER_HZ, which Linux fixes at 100 for
// /proc/<pid>/stat on every architecture Go supports.
const clockTick = 10 * time.Millisecond

// procCPU reads utime+stime of another process from /proc/<pid>/stat; a
// process that is gone reads as 0.
func procCPU(pid int) time.Duration {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// The command name may hold spaces; the numeric fields follow the
	// last ')'. utime and stime are fields 14 and 15, 1-based.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(ut+st) * clockTick
}

// rssMB reads the resident set of pid from /proc/<pid>/status; 0 when the
// process is gone.
func rssMB(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}
