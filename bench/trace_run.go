package main

import (
	"fmt"
	"io"
	"os"
	"strings"
)

// The per-layer metrics, in the order of the stack. Every traced run
// reports all of them; one that a workload does not exercise reads 0.
var layerMetrics = []metricDef{
	{name: "cdr.msg_ns", unit: "ns"},
	{name: "cdr.msg_allocs", unit: "count"},
	{name: "orb.echo_rtt_us", unit: "us"},
	{name: "orb.echo_allocs", unit: "count"},
	{name: "orb.calls_per_txn", unit: "count"},
	{name: "orb.bytes_per_txn", unit: "B"},
	{name: "orb.server_shed", unit: "count"},
	{name: "orb.server_queued_max", unit: "count"},
	{name: "remote.action_call_us", unit: "us"},
	{name: "remote.resource_call_us", unit: "us"},
	{name: "remote.gate_wait_us.p50", unit: "us"},
	{name: "remote.gate_wait_us.p99", unit: "us"},
	{name: "remote.follower_lag_records", unit: "count"},
	{name: "core.lifecycle_us", unit: "us"},
	{name: "core.round_us", unit: "us"},
	{name: "core.broadcast_us", unit: "us"},
	{name: "hls.twopc_unit_us", unit: "us"},
	{name: "hls.twopc_self_us", unit: "us"},
	{name: "ots.commit_us", unit: "us"},
	{name: "ots.framework_ratio", unit: "ratio"},
	{name: "ots.stage_us.prepare", unit: "us"},
	{name: "ots.stage_us.decision", unit: "us"},
	{name: "ots.stage_us.phase2", unit: "us"},
	{name: "ots.stage_us.done", unit: "us"},
	{name: "wal.append_us.p50", unit: "us"},
	{name: "wal.append_us.p99", unit: "us"},
	{name: "wal.appends_per_txn", unit: "count"},
	{name: "wal.fetch_us.1k", unit: "us"},
	{name: "wal.fetch_us.100k", unit: "us"},
	{name: "participant.busy_us", unit: "us"},
	{name: "proc.rss_mb.bench.start", unit: "MB"},
	{name: "proc.rss_mb.bench.end", unit: "MB"},
	{name: "proc.rss_mb.child.start", unit: "MB"},
	{name: "proc.rss_mb.child.end", unit: "MB"},
	{name: "loadgen.drift_ratio", unit: "ratio"},
	{name: "loadgen.lat_p99_us", unit: "us"},
	{name: "loadgen.untraced_lat_p50_us", unit: "us"},
	{name: "loadgen.traced_lat_p50_us", unit: "us"},
	{name: "loadgen.trace_overhead_pct", unit: "%"},
	{name: "account.sum_us", unit: "us"},
	{name: "account.residual_pct", unit: "%"},
}

// runTraced is the separate run that produces the per-layer metrics. It
// measures the workload twice for the same length, first with tracing off
// (the reference the account is held against, and the base of the tracing
// overhead), then with every wrapper on; then it runs the seam probes and
// prints the account. None of its numbers is an end-to-end metric.
func runTraced(c runConfig) (result, error) {
	in := makeInputs(c.seed)
	m := map[string]float64{}

	ref, err := c.bringUp(in, nil)
	if err != nil {
		return result{}, err
	}
	_, refWin, err := c.measure(ref, nil)
	if err != nil {
		return result{}, err
	}

	tr := newTracer()
	l, err := c.bringUp(in, tr)
	if err != nil {
		return result{}, err
	}
	self := os.Getpid()
	var lsnStart, appended uint64
	before := func() {
		m["proc.rss_mb.bench.start"] = rssMB(self)
		if l.childPID != 0 {
			m["proc.rss_mb.child.start"] = rssMB(l.childPID)
		}
		if l.walLastLSN != nil {
			lsnStart = l.walLastLSN()
		}
	}
	after := func() {
		m["proc.rss_mb.bench.end"] = rssMB(self)
		if l.childPID != 0 {
			m["proc.rss_mb.child.end"] = rssMB(l.childPID)
		}
		if l.walLastLSN != nil {
			appended = l.walLastLSN() - lsnStart
		}
	}
	_, win, err := c.measure(l, &traceHooks{tr: tr, before: before, after: after})
	if err != nil {
		return result{}, err
	}

	dir, err := os.MkdirTemp(c.tmpRoot, "probes-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	if err := probes(dir, in, m); err != nil {
		return result{}, err
	}

	txns := float64(win.ok())
	m["orb.calls_per_txn"] = float64(tr.framesOut.Load()+tr.inbound.Load()) / txns
	m["orb.bytes_per_txn"] = float64(tr.bytesOut.Load()+tr.bytesIn.Load()) / txns
	m["orb.server_shed"] = float64(tr.shed)
	m["orb.server_queued_max"] = float64(tr.queuedMax)
	m["remote.follower_lag_records"] = float64(tr.lagMax)
	gate := sortedCopy(tr.gateWait)
	m["remote.gate_wait_us.p50"] = micros(percentile(gate, 0.50))
	m["remote.gate_wait_us.p99"] = micros(percentile(gate, 0.99))
	for i, name := range []string{"prepare", "decision", "phase2", "done"} {
		m["ots.stage_us."+name] = micros(percentile(sortedCopy(tr.stages[i]), 0.5))
	}
	m["wal.appends_per_txn"] = float64(appended) / txns
	m["participant.busy_us"] = micros(tr.busyNs.Load())/txns + micros(tr.peerBusy)/float64(l.units)
	m["loadgen.drift_ratio"] = refWin.driftRatio()
	refLat := refWin.sorted()
	m["loadgen.lat_p99_us"] = micros(percentile(refLat, 0.99))
	m["loadgen.untraced_lat_p50_us"] = micros(percentile(refLat, 0.5))
	m["loadgen.traced_lat_p50_us"] = micros(percentile(win.sorted(), 0.5))
	m["loadgen.trace_overhead_pct"] = 100 * (m["loadgen.traced_lat_p50_us"]/m["loadgen.untraced_lat_p50_us"] - 1)

	fmt.Fprintf(c.out, "%s seed=%d callers=%d traced=%.1fs samples=%d (untraced reference: %d samples)\n",
		c.w.name, c.seed, c.w.callers, win.elapsed.Seconds(), win.ok(), refWin.ok())
	account(c.out, c.w.name, m)
	res := result{Correct: true, Attempted: win.attempted, Failed: win.failed, Metrics: map[string]metric{}}
	for _, d := range layerMetrics {
		res.Metrics[d.name] = metric{Value: m[d.name], Unit: d.unit}
		fmt.Fprintf(c.out, "  %-30s %14.3f %s\n", d.name, m[d.name], d.unit)
	}
	return res, nil
}

// accountRow is one seam of a workload's account: how often a transaction
// crosses it, and which probe prices one crossing.
type accountRow struct {
	layer string
	count float64
	cost  string // layer metric holding the cost of one crossing, in us
}

// accountRows lists, per workload, the seams its begin→outcome path
// crosses. Counts that the traced run measured are taken from m.
func accountRows(name string, m map[string]float64) []accountRow {
	switch name {
	case "local-2pc":
		// One activity, two broadcasts: prepare and commit. What is left
		// is hls/twopc's own.
		return []accountRow{{"core", 1, "core.lifecycle_us"}, {"core", 2, "core.broadcast_us"}}
	case "remote-activity":
		return []accountRow{
			{"orb", m["orb.calls_per_txn"], "orb.echo_rtt_us"},
			{"remote", remoteActions, "remote.action_call_us"},
			{"core", 1, "core.round_us"},
		}
	case "durable-2pc":
		return []accountRow{
			{"wal", m["wal.appends_per_txn"], "wal.append_us.p50"},
			{"ots", 1, "ots.commit_us"},
		}
	case "replicated-2pc":
		return []accountRow{
			{"wal", m["wal.appends_per_txn"], "wal.append_us.p50"},
			{"orb", m["orb.calls_per_txn"], "orb.echo_rtt_us"},
			{"remote", m["orb.calls_per_txn"], "remote.resource_call_us"},
			{"remote", 1, "remote.gate_wait_us.p50"},
			{"ots", 1, "ots.commit_us"},
		}
	}
	return nil
}

// account prints Σ count × seam cost + participant time beside the
// untraced median latency, and files the sum and the residual in m. A
// residual beyond ±25 % is marked unaccounted: time the seams priced alone
// do not explain, which under two callers is mostly waiting for each other.
func account(out io.Writer, name string, m map[string]float64) {
	p50 := m["loadgen.untraced_lat_p50_us"]
	fmt.Fprintf(out, "account %s: untraced lat_p50_us %.1f, traced %.1f, tracing overhead %+.1f %%\n",
		name, p50, m["loadgen.traced_lat_p50_us"], m["loadgen.trace_overhead_pct"])
	sum := 0.0
	line := func(layer, what string, us float64) {
		fmt.Fprintf(out, "  %-12s %-44s %10.1f us %6.1f %%\n", layer, what, us, 100*us/p50)
	}
	for _, r := range accountRows(name, m) {
		us := r.count * m[r.cost]
		sum += us
		line(r.layer, fmt.Sprintf("%.2f x %s (%.2f)", r.count, r.cost, m[r.cost]), us)
	}
	sum += m["participant.busy_us"]
	line("participant", "participant.busy_us", m["participant.busy_us"])
	line("sum", "", sum)
	residual := p50 - sum
	mark := ""
	if pct := 100 * residual / p50; pct > 25 || pct < -25 {
		mark = "  unaccounted"
	}
	fmt.Fprintf(out, "  %-12s %-44s %10.1f us %6.1f %%%s\n", "residual", "", residual, 100*residual/p50, mark)
	m["account.sum_us"] = sum
	m["account.residual_pct"] = 100 * residual / p50

	switch name {
	case "local-2pc":
		// The framework-over-raw-OTS gap, split.
		fmt.Fprintf(out, "  ots.framework_ratio %.2f = hls.twopc_unit_us %.2f / ots.commit_us %.2f; the unit is core.lifecycle_us %.2f + 2 x core.broadcast_us %.2f + hls.twopc_self_us %.2f\n",
			m["ots.framework_ratio"], m["hls.twopc_unit_us"], m["ots.commit_us"], m["core.lifecycle_us"], m["core.broadcast_us"], m["hls.twopc_self_us"])
	case "durable-2pc", "replicated-2pc":
		// What the commit path spent around its appends beyond their price
		// alone: the other caller's fsync, a follower's fetch holding the
		// log lock, the gate.
		staged := m["ots.stage_us.decision"] + m["ots.stage_us.done"]
		fmt.Fprintf(out, "  ots stages: %s; decision+done %.1f us against %.1f us of appends alone\n",
			strings.Join([]string{
				fmt.Sprintf("prepare %.1f", m["ots.stage_us.prepare"]),
				fmt.Sprintf("decision %.1f", m["ots.stage_us.decision"]),
				fmt.Sprintf("phase2 %.1f", m["ots.stage_us.phase2"]),
				fmt.Sprintf("done %.1f", m["ots.stage_us.done"]),
			}, ", "), staged, m["wal.appends_per_txn"]*m["wal.append_us.p50"])
	}
}
