package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/extendedtx/activityservice"
	"github.com/extendedtx/activityservice/internal/cdr"
	"github.com/extendedtx/activityservice/internal/core"
	"github.com/extendedtx/activityservice/internal/wal"
	"github.com/extendedtx/activityservice/orb"
	"github.com/extendedtx/activityservice/ots"
)

// The seam probes price one crossing of each layer boundary on its own,
// one caller, nothing else running: the costs the account multiplies by the
// counts a traced workload produced. Each reports a median, because a mean
// would carry the GC pauses and scheduler stalls of the probe itself.

// timeAlternating times ops in turn, n rounds after n/10 unmeasured ones,
// and returns each op's sorted times: medians that are subtracted from or
// divided by one another are then taken under the same conditions.
func timeAlternating(n int, ops ...func() error) ([][]int64, error) {
	lat := make([][]int64, len(ops))
	for i := 0; i < n+n/10; i++ {
		for k, op := range ops {
			t0 := time.Now()
			if err := op(); err != nil {
				return nil, err
			}
			if i >= n/10 {
				lat[k] = append(lat[k], int64(time.Since(t0)))
			}
		}
	}
	for k := range lat {
		lat[k] = sortedCopy(lat[k])
	}
	return lat, nil
}

// timeEach is timeAlternating for one op.
func timeEach(n int, op func() error) ([]int64, error) {
	lat, err := timeAlternating(n, op)
	if err != nil {
		return nil, err
	}
	return lat[0], nil
}

// allocsPer is the heap allocations one op makes in this process, averaged
// over n.
func allocsPer(n int, op func() error) (float64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if err := op(); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), nil
}

// probes runs every seam probe and files the results under the layer
// metric names. dir is a scratch directory for the file logs.
func probes(dir string, in *inputs, m map[string]float64) error {
	runtime.GC() // the workload's garbage is not the probes' to collect
	steps := []func(string, *inputs, map[string]float64) error{
		probeCDR, probeORB, probeCore, probeWALAppend, probeWALFetch,
	}
	for _, step := range steps {
		if err := step(dir, in, m); err != nil {
			return err
		}
	}
	return nil
}

// probeCDR encodes and decodes one message shaped like the signal request
// a coordinator sends a remote action: request header, one service context
// holding the activity propagation context, and the signal as the body.
func probeCDR(_ string, in *inputs, m map[string]float64) error {
	pc, err := activityservice.New().Begin(in.name(0, 0)).PropagationContext()
	if err != nil {
		return err
	}
	sig := activityservice.Signal{Name: "complete", SetName: activityservice.DefaultCompletionSet, Data: in.payload(0, 0, 0)}
	magic := []byte("GLOP")
	op := func() error {
		ctx := cdr.GetEncoder()
		if err := pc.Encode(ctx); err != nil {
			return err
		}
		body := cdr.GetEncoder()
		if err := sig.Encode(body); err != nil {
			return err
		}
		e := cdr.GetEncoder()
		e.WriteRaw(magic)
		e.WriteOctet(1)
		e.WriteOctet(0)
		e.WriteUint16(0)
		e.WriteUint64(42)
		e.WriteString("0123456789abcdef0123456789abcdef")
		e.WriteString("process_signal")
		e.WriteUint32(1)
		e.WriteUint32(orb.ContextActivity)
		e.WriteBytes(ctx.Bytes())
		e.WriteBytes(body.Bytes())

		d := cdr.NewDecoder(e.Bytes())
		d.ReadUint32() // magic
		d.ReadOctet()
		d.ReadOctet()
		d.ReadUint16()
		d.ReadUint64()
		_ = d.ReadString()
		_ = d.ReadString()
		d.ReadUint32()
		d.ReadUint32()
		if _, err := core.DecodePropagationContext(cdr.NewDecoder(d.ReadBytes())); err != nil {
			return err
		}
		if _, err := core.DecodeSignal(cdr.NewDecoder(d.ReadBytes())); err != nil {
			return err
		}
		cdr.PutEncoder(ctx)
		cdr.PutEncoder(body)
		cdr.PutEncoder(e)
		return d.Err()
	}
	lat, err := timeEach(50000, op)
	if err != nil {
		return fmt.Errorf("cdr probe: %w", err)
	}
	m["cdr.msg_ns"] = float64(percentile(lat, 0.5))
	m["cdr.msg_allocs"], err = allocsPer(50000, op)
	return err
}

// probeORB prices one loopback round trip on the default transport to an
// empty operation in another process, as every call of the two remote
// workloads is, then the two bridges of internal/remote over the same wire.
// The three calls alternate, so a bridge's self time — its call minus the
// bare round trip — compares medians taken under the same conditions.
func probeORB(dir string, in *inputs, m map[string]float64) error {
	peer, _, refs, err := startPeer("", dir, false)
	if err != nil {
		return err
	}
	defer peer.finish()
	client := orb.New()
	defer client.Shutdown()
	ctx := context.Background()
	echo := func() error {
		_, err := client.Invoke(ctx, refs[peerRefEcho], "ping", nil)
		return err
	}
	action := orb.ImportAction(client, refs[peerRefAction])
	sig := activityservice.Signal{Name: "complete", SetName: activityservice.DefaultCompletionSet}
	res := orb.ImportResource(client, refs[peerRefResource0])
	lat, err := timeAlternating(5000,
		echo,
		func() error { _, err := action.ProcessSignal(ctx, sig); return err },
		func() error { _, err := res.Prepare(); return err })
	if err != nil {
		return fmt.Errorf("orb probe: %w", err)
	}
	rtt := micros(percentile(lat[0], 0.5))
	m["orb.echo_rtt_us"] = rtt
	m["remote.action_call_us"] = micros(percentile(lat[1], 0.5)) - rtt
	m["remote.resource_call_us"] = micros(percentile(lat[2], 0.5)) - rtt
	// Client-side allocations only: the servant is in the other process.
	m["orb.echo_allocs"], err = allocsPer(5000, echo)
	return err
}

// probeCore prices the core coordinator: an activity's lifecycle with eight
// no-op actions enrolled in a one-signal set (begin, register, enrol,
// complete), and the same with that set broadcast once, which is one round.
// Their difference is what one more broadcast costs. Alternating with them
// it runs the local-2pc unit and the hand-coded protocol it is compared
// with — a raw transaction-service commit over a memory log and the same
// eight no-op resources — so that hls.twopc_self_us and ots.framework_ratio
// are made of medians taken under the same conditions.
//
// local-2pc is one lifecycle and two broadcasts plus whatever hls/twopc adds
// (its signal set, a ResourceAction per participant), so
// hls.twopc_self_us = unit - lifecycle - 2 x broadcast. Subtracting two
// whole rounds instead would pay for the lifecycle twice and go negative.
func probeCore(_ string, in *inputs, m map[string]float64) error {
	svc := activityservice.New()
	ctx := context.Background()
	noop := activityservice.ActionFunc(func(context.Context, activityservice.Signal) (activityservice.Outcome, error) {
		return activityservice.Outcome{Name: "ok"}, nil
	})
	round := func(broadcast bool) func() error {
		return func() error {
			a := svc.Begin(in.name(0, 0))
			if err := a.RegisterSignalSet(activityservice.NewSequenceSet("round", "ping")); err != nil {
				return err
			}
			for i := 0; i < localParticipants; i++ {
				if _, err := a.AddAction("round", noop); err != nil {
					return err
				}
			}
			if broadcast {
				if _, err := a.Signal(ctx, "round"); err != nil {
					return err
				}
			}
			_, err := a.Complete(ctx)
			return err
		}
	}
	local, err := upLocal2PC(&runEnv{in: in})
	if err != nil {
		return err
	}
	raw := ots.NewService(ots.WithLog(ots.NewMemoryLog()))
	var res [localParticipants]*noopResource
	for i := range res {
		res[i] = &noopResource{t: &tally{}}
	}
	names := []string{"core.lifecycle_us", "core.round_us", "hls.twopc_unit_us", "ots.commit_us"}
	lat, err := timeAlternating(20000,
		round(false),
		round(true),
		func() error { return local.unit(0, 0) },
		func() error {
			tx := raw.Begin()
			for _, r := range res {
				if err := tx.RegisterResource(r); err != nil {
					return err
				}
			}
			return tx.Commit(true)
		})
	if err != nil {
		return fmt.Errorf("core probe: %w", err)
	}
	for k, name := range names {
		m[name] = micros(percentile(lat[k], 0.5))
	}
	m["core.broadcast_us"] = m["core.round_us"] - m["core.lifecycle_us"]
	m["hls.twopc_self_us"] = m["hls.twopc_unit_us"] - m["core.lifecycle_us"] - 2*m["core.broadcast_us"]
	m["ots.framework_ratio"] = m["hls.twopc_unit_us"] / m["ots.commit_us"]
	return nil
}

// decisionSized is a record the size of a two-participant commit decision.
var decisionSized = make([]byte, 64)

// probeWALAppend prices one forced append to a file log, one caller.
func probeWALAppend(dir string, _ *inputs, m map[string]float64) error {
	log, err := wal.OpenFile(filepath.Join(dir, "append.wal"))
	if err != nil {
		return err
	}
	defer log.Close()
	lat, err := timeEach(2000, func() error {
		_, err := log.Append(0x11, decisionSized)
		return err
	})
	if err != nil {
		return fmt.Errorf("wal append probe: %w", err)
	}
	m["wal.append_us.p50"] = micros(percentile(lat, 0.50))
	m["wal.append_us.p99"] = micros(percentile(lat, 0.99))
	return nil
}

// probeWALFetch prices what a follower's fetch costs the primary: reading
// the one newest record of a file log that already holds n.
func probeWALFetch(dir string, _ *inputs, m map[string]float64) error {
	for _, size := range []struct {
		name       string
		n, fetches int
	}{{"wal.fetch_us.1k", 1000, 200}, {"wal.fetch_us.100k", 100000, 10}} {
		// Filling a file log costs one fsync per record; a memory log
		// with the same records is written out as the file instead.
		mem := wal.NewMemory()
		for i := 0; i < size.n; i++ {
			if _, err := mem.Append(0x11, decisionSized); err != nil {
				return err
			}
		}
		image, err := mem.Snapshot()
		if err != nil {
			return err
		}
		path := filepath.Join(dir, size.name)
		if err := os.WriteFile(path, image, 0o644); err != nil {
			return err
		}
		log, err := wal.OpenFile(path)
		if err != nil {
			return err
		}
		last := log.LastLSN()
		lat, err := timeEach(size.fetches, func() error {
			recs, err := log.RecordsSince(last - 1)
			if err == nil && len(recs) != 1 {
				err = fmt.Errorf("fetched %d records, want 1", len(recs))
			}
			return err
		})
		log.Close()
		if err != nil {
			return fmt.Errorf("%s probe: %w", size.name, err)
		}
		m[size.name] = micros(percentile(lat, 0.5))
	}
	return nil
}
