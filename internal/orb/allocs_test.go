//go:build !race

package orb

import (
	"fmt"
	"testing"
)

// TestAllocsWirePath gates BenchmarkWirePath's allocation budgets: a
// steady-state echo, client and server together, must not regress toward
// the 21–23 allocs/op the wire path cost before its rebuild. The serial
// budgets hold on the shared connection and on an exclusive lane alike.
func TestAllocsWirePath(t *testing.T) {
	for _, c := range []struct {
		size, max int
	}{{0, 3}, {64, 4}, {4096, 4}} {
		for _, path := range []string{"serial", "lane"} {
			t.Run(fmt.Sprintf("body=%d/%s", c.size, path), func(t *testing.T) {
				echo := newWireEcho(t, c.size, path == "lane")
				got := testing.AllocsPerRun(100, func() {
					if err := echo(); err != nil {
						t.Fatal(err)
					}
				})
				if int(got) > c.max {
					t.Errorf("%.0f allocs/op, budget %d", got, c.max)
				}
			})
		}
	}
	for _, size := range []int{0, 4096} {
		t.Run(fmt.Sprintf("body=%d/conc=64", size), func(t *testing.T) {
			if got := benchAllocs(t, benchWirePath(size, 64)); got > 8 {
				t.Errorf("%d allocs/op, budget 8", got)
			}
		})
	}
}

// benchAllocs runs a benchmark body with testing.Benchmark and returns its
// allocs/op. testing.Benchmark discards a failed run's output and may
// return a partial result, so the failure is caught here.
func benchAllocs(t *testing.T, f func(*testing.B)) int64 {
	t.Helper()
	failed := false
	r := testing.Benchmark(func(b *testing.B) {
		defer func() { failed = failed || b.Failed() }()
		f(b)
	})
	if failed {
		t.Fatal("benchmark failed")
	}
	return r.AllocsPerOp()
}
