package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"time"
)

// The end-to-end metrics, with the share of the base's median each may
// worsen by before -compare calls it a regression. BENCHMARK.json lists the
// same names, units, directions and bounds; bench_test.go holds the two
// equal. fail_ratio is the fifth: it travels as the result line's failed
// and attempted counts, and any increase is a regression.
var endToEndMetrics = []metricDef{
	{name: "txn_per_s", unit: "1/s", higherIsBetter: true, bound: 0.25},
	{name: "lat_p50_us", unit: "us", bound: 0.25},
	{name: "cpu_us_per_txn", unit: "us", bound: 0.25},
	{name: "setup_s", unit: "s", bound: 0.25},
}

type metricDef struct {
	name, unit     string
	higherIsBetter bool
	bound          float64
}

// metric is one reported value, in the shape the result line uses.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is one run of one workload.
type runConfig struct {
	w       workload
	seed    int64
	seconds float64
	binDir  string
	tmpRoot string
	veto    bool      // gate self-test: a participant votes rollback
	out     io.Writer // the readable report; the result line is the caller's
}

// setupRepeats is how many times an untraced run brings the workload up
// before it measures: setup_s is the median, so one slow spawn or fsync
// does not set it.
const setupRepeats = 3

// warmup is the share of the timed window run first, unmeasured, against
// the instance that is then measured. It is part of setup_s.
const warmupShare = 0.1

func (c runConfig) timed() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }
func (c runConfig) warmup() time.Duration {
	return time.Duration(c.seconds * warmupShare * float64(time.Second))
}

// errGate marks a violation of the correctness gate: the run exits
// non-zero and prints no result.
var errGate = errors.New("correctness gate")

// live is a brought-up instance with its bookkeeping.
type live struct {
	*instance
	dir     string
	units   int64         // units that ended correctly since bring-up
	bringUp time.Duration // workload start → outcome of the first unit
}

// bringUp starts the workload in a fresh directory and runs its first
// unit: spawn, open and replay logs, listen, resolve, promote, handshake,
// and every lazy path the first transaction takes.
func (c runConfig) bringUp(in *inputs, tr *tracer) (*live, error) {
	dir, err := os.MkdirTemp(c.tmpRoot, c.w.name+"-")
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	inst, err := c.w.up(&runEnv{in: in, tmp: dir, binDir: c.binDir, tr: tr, veto: c.veto})
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("%s: bring-up: %w", c.w.name, err)
	}
	l := &live{instance: inst, dir: dir}
	if err := inst.unit(0, 0); err != nil {
		_ = l.tearDown()
		return nil, fmt.Errorf("%w: %s: first unit: %v", errGate, c.w.name, err)
	}
	l.units = 1
	l.bringUp = time.Since(t0)
	return l, nil
}

// drive runs a closed-loop window on the instance. A failed unit is a gate
// violation whichever window it falls in.
func (l *live) drive(c runConfig, d time.Duration) (window, error) {
	w := drive(c.w.callers, d, l.childPID, l.unit)
	l.units += w.ok()
	if w.failed > 0 {
		return w, fmt.Errorf("%w: %s: %d of %d units failed, first: %v", errGate, c.w.name, w.failed, w.attempted, w.firstErr)
	}
	return w, nil
}

// finish runs the exactly-once check and stops everything the bring-up
// started.
func (l *live) finish(c runConfig) error {
	err := l.check(l.units)
	if err != nil {
		err = fmt.Errorf("%w: %s: %v", errGate, c.w.name, err)
	}
	if derr := l.tearDown(); err == nil && derr != nil {
		err = fmt.Errorf("%s: tear-down: %w", c.w.name, derr)
	}
	return err
}

func (l *live) tearDown() error {
	err := l.down()
	os.RemoveAll(l.dir)
	return err
}

// traceHooks is what a traced window switches on around the measurement.
type traceHooks struct {
	tr            *tracer
	before, after func()
}

// measure warms the instance up, runs the timed window, checks and tears
// down. With hooks the tracer records during the timed window only, and the
// samplers run beside it.
func (c runConfig) measure(l *live, h *traceHooks) (warm, win window, err error) {
	warm, err = l.drive(c, c.warmup())
	if err == nil {
		stop := make(chan struct{})
		sampled := make(chan struct{})
		if h != nil {
			h.before()
			h.tr.on.Store(true)
			go func() {
				h.tr.sample(stop, l.server, l.lag)
				close(sampled)
			}()
		}
		win, err = l.drive(c, c.timed())
		if h != nil {
			h.tr.on.Store(false)
			close(stop)
			<-sampled
			h.after()
		}
	}
	if err != nil {
		_ = l.tearDown()
		return warm, win, err
	}
	return warm, win, l.finish(c)
}

// runTimed is the untraced run: it brings the workload up setupRepeats
// times, warms the last instance up, measures it for the timed window and
// reports the end-to-end metrics.
func runTimed(c runConfig) (result, error) {
	in := makeInputs(c.seed)
	var bringUps []float64
	var l *live
	for k := 0; k < setupRepeats; k++ {
		var err error
		if l, err = c.bringUp(in, nil); err != nil {
			return result{}, err
		}
		bringUps = append(bringUps, l.bringUp.Seconds())
		if k < setupRepeats-1 {
			if err := l.finish(c); err != nil {
				return result{}, err
			}
		}
	}
	warm, timed, err := c.measure(l, nil)
	if err != nil {
		return result{}, err
	}

	lat := timed.sorted()
	ok := float64(timed.ok())
	values := map[string]float64{
		"txn_per_s":      ok / timed.elapsed.Seconds(),
		"lat_p50_us":     micros(percentile(lat, 0.50)),
		"cpu_us_per_txn": float64(timed.cpu.Microseconds()) / ok,
		"setup_s":        median(bringUps) + warm.elapsed.Seconds(),
	}
	res := result{Correct: true, Attempted: timed.attempted, Failed: timed.failed, Metrics: map[string]metric{}}
	fmt.Fprintf(c.out, "%s seed=%d callers=%d timed=%.1fs samples=%d bring-ups=%v\n",
		c.w.name, c.seed, c.w.callers, timed.elapsed.Seconds(), len(lat), bringUps)
	for _, m := range endToEndMetrics {
		res.Metrics[m.name] = metric{Value: values[m.name], Unit: m.unit}
		fmt.Fprintf(c.out, "  %-16s %14.3f %s\n", m.name, values[m.name], m.unit)
	}
	// Reported, not gated: on this kind of host the whole-run p99 does not
	// repeat within a bound; the traced run files it as loadgen.lat_p99_us.
	fmt.Fprintf(c.out, "  %-16s %14.3f us (of %d samples)\n", "lat_p99_us", micros(percentile(lat, 0.99)), len(lat))
	fmt.Fprintf(c.out, "  %-16s %14.6f ratio (%d failed of %d attempted)\n", "fail_ratio",
		float64(timed.failed)/float64(timed.attempted), timed.failed, timed.attempted)
	return res, nil
}
