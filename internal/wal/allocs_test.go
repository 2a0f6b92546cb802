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
