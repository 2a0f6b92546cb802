//go:build !race

package wal

import "testing"

// TestAllocsFencedAppend gates BenchmarkFencedAppend against
// BenchmarkAppend: the fence check may cost at most one allocation per
// append over the plain path.
func TestAllocsFencedAppend(t *testing.T) {
	plain := testing.AllocsPerRun(200, appendOp(t, false))
	fenced := testing.AllocsPerRun(200, appendOp(t, true))
	if fenced > plain+1 {
		t.Errorf("fenced append costs %.0f allocs/op, budget plain %.0f + 1", fenced, plain)
	}
}

// TestAllocsAppendLazy gates BenchmarkAppendLazy: a done record is encoded
// into the log's reused buffer, with no allocation and no I/O.
func TestAllocsAppendLazy(t *testing.T) {
	if got := testing.AllocsPerRun(2000, appendLazyOp(t)); got > 0 {
		t.Errorf("lazy append costs %.0f allocs/op, budget 0", got)
	}
}

// TestAllocsAppendFile gates BenchmarkAppendFile: a file-backed append
// allocates no more than a memory-backed one, and extending the file by a
// whole step allocates nothing — the zeros come from one shared buffer.
func TestAllocsAppendFile(t *testing.T) {
	mem := testing.AllocsPerRun(200, appendOp(t, false))
	if file := testing.AllocsPerRun(200, appendFileOp(t)); file > mem {
		t.Errorf("file-backed append costs %.0f allocs/op, memory-backed %.0f", file, mem)
	}
	if got := testing.AllocsPerRun(20, extendOp(t)); got > 0 {
		t.Errorf("extending the file costs %.0f allocs/op, budget 0", got)
	}
}

// TestAllocsAppendRecordsBatch pins the follower apply: a 256-record batch
// allocates the same as a one-record batch, so the per-record cost is the
// encode into the reused write buffer and nothing else.
func TestAllocsAppendRecordsBatch(t *testing.T) {
	one := testing.AllocsPerRun(50, applyBatchOp(t, 1))
	batch := testing.AllocsPerRun(50, applyBatchOp(t, 256))
	if batch != one {
		t.Errorf("applying 256 records costs %.0f allocs/op, one record %.0f", batch, one)
	}
}

// TestAllocsRecordsSinceFlatInLogSize gates BenchmarkRecordsSince: a
// follower fetch of the newest record allocates the same on a 100 k-record
// log as on a 1 k-record one, so its cost does not grow with the log.
func TestAllocsRecordsSinceFlatInLogSize(t *testing.T) {
	small := testing.AllocsPerRun(50, fetchNewest(t, fileLogOf(t, 1000)))
	large := testing.AllocsPerRun(50, fetchNewest(t, fileLogOf(t, 100000)))
	if large != small {
		t.Errorf("fetch on 100k records costs %.0f allocs/op, on 1k %.0f", large, small)
	}
}
