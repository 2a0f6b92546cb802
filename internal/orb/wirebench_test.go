package orb

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/extendedtx/activityservice/internal/cdr"
)

// echoBytesServant returns the request body bytes as the reply body. It reads
// the lent body slice and returns it directly — legal, because the server
// encodes the reply before the request frame is released.
type echoBytesServant struct{}

// Dispatch implements Servant.
func (echoBytesServant) Dispatch(_ context.Context, _ string, in *cdr.Decoder) ([]byte, error) {
	return in.ReadBytes(), nil
}

// newWireEcho starts an echo server and a one-connection client for a
// size-byte body and returns one warmed request/reply round trip. Both
// ORBs shut down with tb's cleanups.
func newWireEcho(tb testing.TB, size int) func() error {
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i)
	}
	e := cdr.NewEncoder(16 + size)
	e.WriteBytes(payload)
	body := e.Bytes()

	srv := New()
	tb.Cleanup(srv.Shutdown)
	ref := srv.RegisterServant("IDL:bench/Echo:1.0", echoBytesServant{})
	if _, err := srv.Listen("127.0.0.1:0"); err != nil {
		tb.Fatal(err)
	}
	ref, _ = srv.IOR(ref.Key)
	cli := New(WithPoolSize(1))
	tb.Cleanup(cli.Shutdown)
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	tb.Cleanup(cancel)
	echo := func() error {
		_, err := cli.Invoke(ctx, ref, "echo", body)
		return err
	}
	if err := echo(); err != nil {
		tb.Fatal(err)
	}
	return echo
}

// warmCallers runs a few echoes from each of n concurrent callers, so the
// per-P pools and the goroutine free list a RunParallel body draws on are
// filled before the timer starts.
func warmCallers(echo func() error, n int) error {
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				if err := echo(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// benchWirePath is one BenchmarkWirePath configuration: size-byte echoes
// from one caller, or from callers×GOMAXPROCS RunParallel callers on one
// pooled connection after every one of them has been warmed.
func benchWirePath(size, callers int) func(*testing.B) {
	return func(b *testing.B) {
		echo := newWireEcho(b, size)
		if callers > 1 {
			if err := warmCallers(echo, callers*runtime.GOMAXPROCS(0)); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		if callers == 1 {
			for i := 0; i < b.N; i++ {
				if err := echo(); err != nil {
					b.Fatal(err)
				}
			}
			return
		}
		b.SetParallelism(callers)
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				// FailNow is only legal on the benchmark goroutine.
				if err := echo(); err != nil {
					b.Error(err)
					return
				}
			}
		})
	}
}

// BenchmarkWirePath measures one request/reply echo over the TCP wire
// path: small and 4KB bodies, sequential (one caller, the latency view)
// and concurrent (64 callers on one pooled connection, the coalescing
// view). ReportAllocs pins the zero-allocation claim for the steady-state
// client send path; TestAllocsWirePath gates it.
func BenchmarkWirePath(b *testing.B) {
	for _, size := range []int{0, 64, 4096} {
		b.Run(fmt.Sprintf("body=%d/serial", size), benchWirePath(size, 1))
		b.Run(fmt.Sprintf("body=%d/conc=64", size), benchWirePath(size, 64))
	}
}
