package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compareFiles prints one row per (end-to-end metric, workload): both
// medians, the second as a ratio of the first (its base), and a verdict by
// the metric's bound.
// A pair is unresolved when either side's own runs spread wider than the
// bound: the difference cannot then be told from noise.
func compareFiles(out io.Writer, basePath, otherPath string) error {
	base, err := readSuite(basePath)
	if err != nil {
		return err
	}
	other, err := readSuite(otherPath)
	if err != nil {
		return err
	}
	for _, side := range []struct {
		role, path string
		h          suiteHeader
	}{{"base ", basePath, base.Header}, {"other", otherPath, other.Header}} {
		fmt.Fprintf(out, "%s %s: commit %s, %d runs x %.0fs, %s, %d cpus, WAL on %s\n", side.role, side.path,
			side.h.GitCommit, side.h.Runs, side.h.TimedS, side.h.GoVersion, side.h.NProc, side.h.WALFS)
	}
	fmt.Fprintf(out, "\n%-16s %-15s %13s %13s %10s %11s %12s %6s  %s\n",
		"workload", "metric", "base median", "other median", "other/base", "base spread", "other spread", "bound", "verdict")
	for _, w := range workloads {
		a, b := base.Workloads[w.name], other.Workloads[w.name]
		if a == nil || b == nil {
			fmt.Fprintf(out, "%-16s missing from one file\n", w.name)
			continue
		}
		for _, m := range endToEndMetrics {
			ma, mb := a.Median[m.name], b.Median[m.name]
			fmt.Fprintf(out, "%-16s %-15s %13.3f %13.3f %10.3f %10.1f%% %11.1f%% %5.0f%%  %s\n",
				w.name, m.name, ma, mb, mb/ma, 100*a.Spread[m.name], 100*b.Spread[m.name], 100*m.bound,
				verdict(m, ma, mb, a.Spread[m.name], b.Spread[m.name]))
		}
		fa, fb := worstFailRatio(a), worstFailRatio(b)
		v := "unchanged"
		if fb > fa {
			v = "regressed"
		} else if fb < fa {
			v = "improved"
		}
		fmt.Fprintf(out, "%-16s %-15s %13.6f %13.6f %10s %11s %12s %6s  %s\n", w.name, "fail_ratio", fa, fb, "", "", "", "any", v)
	}
	return nil
}

// verdict holds other's median against base's by m's bound and direction.
func verdict(m metricDef, base, other, spreadBase, spreadOther float64) string {
	if spreadBase > m.bound || spreadOther > m.bound {
		return "unresolved"
	}
	change := (other - base) / base // positive is worse for lower-is-better
	if m.higherIsBetter {
		change = -change
	}
	switch {
	case change > m.bound:
		return "regressed"
	case change < -m.bound:
		return "improved"
	}
	return "unchanged"
}

func worstFailRatio(r *suiteResults) float64 {
	worst := 0.0
	for _, run := range r.Runs {
		worst = max(worst, run.FailRatio)
	}
	return worst
}

func readSuite(path string) (*suiteFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f suiteFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}
